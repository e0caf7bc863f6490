package sqlparse

// This file preserves the pre-rewrite recursive-descent parser (map-based
// keyword lookup, per-token string materialization, heap-allocated AST
// nodes) as a test-only oracle. FuzzParseDiff pins the zero-allocation
// parser bit-identical to it on arbitrary inputs, and BenchmarkParse/legacy
// measures the speedup the rewrite delivers. The intentional changes from
// the historical code keep the differential target aligned with the
// grammar: EXPLAIN ANALYZE support was added, and the constructs the
// grammar no longer has (string literals, STRING/VARCHAR columns, DISTINCT,
// LIMIT) were deleted, with nothing written in their place.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"setm/internal/tuple"
)

var legacyKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "AND": true,
	"OR": true, "NOT": true, "INSERT": true, "INTO": true, "VALUES": true,
	"CREATE": true, "TABLE": true, "DROP": true, "DELETE": true, "AS": true,
	"INT": true, "INTEGER": true, "STRING": true, "VARCHAR": true,
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "DISTINCT": true,
	"LIMIT": true, "IF": true, "EXISTS": true, "EXPLAIN": true,
}

type legacyLexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLegacyLexer(src string) *legacyLexer { return &legacyLexer{src: src, line: 1, col: 1} }

func (l *legacyLexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *legacyLexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *legacyLexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *legacyLexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func legacyIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func legacyIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *legacyLexer) next() (Token, error) {
	l.skipSpaceAndComments()
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case legacyIsIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && legacyIsIdentPart(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.pos]
		up := strings.ToUpper(word)
		if legacyKeywords[up] {
			tok.Kind = TokKeyword
			tok.Text = up
		} else {
			tok.Kind = TokIdent
			tok.Text = word
		}
		return tok, nil

	case unicode.IsDigit(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.peek())) {
			l.advance()
		}
		tok.Kind = TokInt
		tok.Text = l.src[start:l.pos]
		return tok, nil

	case c == ':':
		l.advance()
		if !legacyIsIdentStart(l.peek()) {
			return tok, fmt.Errorf("sql:%d:%d: expected parameter name after ':'", tok.Line, tok.Col)
		}
		start := l.pos
		for l.pos < len(l.src) && legacyIsIdentPart(l.peek()) {
			l.advance()
		}
		tok.Kind = TokParam
		tok.Text = l.src[start:l.pos]
		return tok, nil

	default:
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "<=", ">=", "!=":
			l.advance()
			l.advance()
			tok.Kind = TokSymbol
			if two == "!=" {
				two = "<>"
			}
			tok.Text = two
			return tok, nil
		}
		switch c {
		case '(', ')', ',', ';', '*', '=', '<', '>', '.', '+', '-', '/':
			l.advance()
			tok.Kind = TokSymbol
			tok.Text = string(c)
			return tok, nil
		}
		return tok, fmt.Errorf("sql:%d:%d: unexpected character %q", tok.Line, tok.Col, c)
	}
}

type legacyParser struct {
	lex *legacyLexer
	tok Token
}

func legacyParse(src string) (Stmt, error) {
	p := &legacyParser{lex: newLegacyLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSymbol && p.tok.Text == ";" {
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected %s after statement", p.tok)
	}
	return st, nil
}

func legacyParseScript(src string) ([]Stmt, error) {
	p := &legacyParser{lex: newLegacyLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	var out []Stmt
	for p.tok.Kind != TokEOF {
		if p.tok.Kind == TokSymbol && p.tok.Text == ";" {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (p *legacyParser) next() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *legacyParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql:%d:%d: %s", p.tok.Line, p.tok.Col, fmt.Sprintf(format, args...))
}

func (p *legacyParser) isKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *legacyParser) acceptKeyword(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.next()
	}
	return false, nil
}

func (p *legacyParser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.tok)
	}
	return p.next()
}

func (p *legacyParser) isSymbol(s string) bool {
	return p.tok.Kind == TokSymbol && p.tok.Text == s
}

func (p *legacyParser) acceptSymbol(s string) (bool, error) {
	if p.isSymbol(s) {
		return true, p.next()
	}
	return false, nil
}

func (p *legacyParser) expectSymbol(s string) error {
	if !p.isSymbol(s) {
		return p.errf("expected %q, found %s", s, p.tok)
	}
	return p.next()
}

func (p *legacyParser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", p.tok)
	}
	name := p.tok.Text
	return name, p.next()
}

func (p *legacyParser) parseStmt() (Stmt, error) {
	switch {
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("EXPLAIN"):
		if err := p.next(); err != nil {
			return nil, err
		}
		analyze := false
		if p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, "ANALYZE") {
			analyze = true
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if !p.isKeyword("SELECT") {
			return nil, p.errf("expected SELECT after EXPLAIN, found %s", p.tok)
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Select: sel.(*Select), Analyze: analyze}, nil
	default:
		return nil, p.errf("expected statement, found %s", p.tok)
	}
}

func (p *legacyParser) parseCreate() (Stmt, error) {
	if err := p.next(); err != nil { // CREATE
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTable{}
	if ok, err := p.acceptKeyword("IF"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var kind tuple.Kind
		switch {
		case p.isKeyword("INT") || p.isKeyword("INTEGER"):
			kind = tuple.KindInt
		default:
			return nil, p.errf("expected column type, found %s", p.tok)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, tuple.Column{Name: col, Kind: kind})
		if ok, err := p.acceptSymbol(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *legacyParser) parseDrop() (Stmt, error) {
	if err := p.next(); err != nil { // DROP
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTable{}
	if ok, err := p.acceptKeyword("IF"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *legacyParser) parseDelete() (Stmt, error) {
	if err := p.next(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DeleteAll{Name: name}, nil
}

func (p *legacyParser) parseInsert() (Stmt, error) {
	if err := p.next(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &Insert{Table: name}
	if ok, err := p.acceptSymbol("("); err != nil {
		return nil, err
	} else if ok {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.isKeyword("VALUES"):
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if ok, err := p.acceptSymbol(","); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		return st, nil
	case p.isKeyword("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel.(*Select)
		return st, nil
	default:
		return nil, p.errf("expected VALUES or SELECT, found %s", p.tok)
	}
}

func (p *legacyParser) parseSelect() (Stmt, error) {
	if err := p.next(); err != nil { // SELECT
		return nil, err
	}
	sel := &Select{}
	for {
		if p.isSymbol("*") {
			if err := p.next(); err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if ok, err := p.acceptKeyword("AS"); err != nil {
				return nil, err
			} else if ok {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.tok.Kind == TokIdent {
				item.Alias = p.tok.Text
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			sel.Items = append(sel.Items, item)
		}
		if ok, err := p.acceptSymbol(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		tbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: tbl}
		if ok, err := p.acceptKeyword("AS"); err != nil {
			return nil, err
		} else if ok {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		} else if p.tok.Kind == TokIdent {
			ref.Alias = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		sel.From = append(sel.From, ref)
		if ok, err := p.acceptSymbol(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if ok, err := p.acceptKeyword("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if ok, err := p.acceptKeyword("HAVING"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if ok, err := p.acceptKeyword("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if ok, err := p.acceptKeyword("DESC"); err != nil {
				return nil, err
			} else if ok {
				oi.Desc = true
			} else if ok, err := p.acceptKeyword("ASC"); err != nil {
				return nil, err
			} else if ok { //nolint:staticcheck // explicit ASC accepted
			}
			sel.OrderBy = append(sel.OrderBy, oi)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	return sel, nil
}

func (p *legacyParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *legacyParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *legacyParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *legacyParser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

func (p *legacyParser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSymbol {
		switch p.tok.Text {
		case "=", "<>", "<", "<=", ">", ">=":
			op := BinaryOp(p.tok.Text)
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *legacyParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokSymbol && (p.tok.Text == "+" || p.tok.Text == "-") {
		op := BinaryOp(p.tok.Text)
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *legacyParser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokSymbol && (p.tok.Text == "*" || p.tok.Text == "/") {
		op := BinaryOp(p.tok.Text)
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *legacyParser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokInt:
		v, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", p.tok.Text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return &IntLit{Value: v}, nil

	case p.tok.Kind == TokParam:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Param{Name: name}, nil

	case p.isSymbol("("):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil

	case p.isSymbol("-"):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: OpSub, L: &IntLit{Value: 0}, R: e}, nil

	case p.isKeyword("COUNT") || p.isKeyword("SUM") || p.isKeyword("MIN") || p.isKeyword("MAX"):
		fn := AggFunc(p.tok.Text)
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		agg := &AggExpr{Func: fn}
		if ok, err := p.acceptSymbol("*"); err != nil {
			return nil, err
		} else if ok {
			if fn != FuncCount {
				return nil, p.errf("%s(*) is not valid", fn)
			}
			agg.Star = true
		} else {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			agg.Arg = arg
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return agg, nil

	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if ok, err := p.acceptSymbol("."); err != nil {
			return nil, err
		} else if ok {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil

	default:
		return nil, p.errf("expected expression, found %s", p.tok)
	}
}
