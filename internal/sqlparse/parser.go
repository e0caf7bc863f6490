// The grammar the parser accepts, in EBNF. Keywords are case-insensitive
// and reserved; STRING, VARCHAR, DISTINCT and LIMIT are reserved too but
// appear in no production. ANALYZE is a keyword only right after EXPLAIN.
// "--" starts a comment that runs to the end of the line.
//
//	script    = { stmt | ";" } .                     (ParseScript)
//	statement = stmt [ ";" ] .                       (ParseStatement)
//	stmt      = create | drop | delete | insert | select | explain .
//	create    = "CREATE" "TABLE" [ "IF" "NOT" "EXISTS" ] ident
//	            "(" ident intType { "," ident intType } ")" .
//	intType   = "INT" | "INTEGER" .
//	drop      = "DROP" "TABLE" [ "IF" "EXISTS" ] ident .
//	delete    = "DELETE" "FROM" ident .
//	insert    = "INSERT" "INTO" ident [ "(" ident { "," ident } ")" ]
//	            ( "VALUES" row { "," row } | select ) .
//	row       = "(" expr { "," expr } ")" .
//	explain   = "EXPLAIN" [ "ANALYZE" ] select .
//	select    = "SELECT" item { "," item }
//	            "FROM" table { "," table }
//	            [ "WHERE" expr ]
//	            [ "GROUP" "BY" expr { "," expr } ]
//	            [ "HAVING" expr ]
//	            [ "ORDER" "BY" order { "," order } ] .
//	item      = "*" | expr [ [ "AS" ] ident ] .
//	table     = ident [ [ "AS" ] ident ] .
//	order     = expr [ "ASC" | "DESC" ] .
//	expr      = and { "OR" and } .
//	and       = not { "AND" not } .
//	not       = "NOT" not | cmp .
//	cmp       = add [ ( "=" | "<>" | "!=" | "<" | "<=" | ">" | ">=" ) add ] .
//	add       = mul { ( "+" | "-" ) mul } .
//	mul       = primary { ( "*" | "/" ) primary } .
//	primary   = int | ":" ident | "(" expr ")" | "-" primary
//	          | "COUNT" "(" "*" ")"
//	          | ( "COUNT" | "SUM" | "MIN" | "MAX" ) "(" expr ")"
//	          | ident [ "." ident ] .
//	int       = digit { digit } .                    (at most MaxInt64)
//	ident     = letter { letter | digit } .          (not a keyword)
//
// A letter is "_" or a Latin-1 letter; the parameter's ":" and its name are
// one token. The planner further requires GROUP BY and ORDER BY items to be
// columns and every join to have an equality between columns of the two
// sides.

package sqlparse

import (
	"fmt"
	"sync"

	"setm/internal/tuple"
)

// arena holds every AST node the parser builds, bucketed by type. Nodes are
// appended to the slabs and handed out as element pointers; Reset truncates
// the slabs in place, so a reused parser reaches a steady state where
// parsing performs no allocations at all. Growing a slab may move it, but
// previously handed-out pointers keep referring to the old backing array,
// which is never rewritten until the next Reset — the tree stays consistent.
type arena struct {
	bins     []BinaryExpr
	nots     []NotExpr
	cols     []ColumnRef
	ints     []IntLit
	params   []Param
	aggs     []AggExpr
	selects  []Select
	explains []Explain
	creates  []CreateTable
	drops    []DropTable
	deletes  []DeleteAll
	inserts  []Insert
	items    []SelectItem
	refs     []TableRef
	orders   []OrderItem
	exprs    []Expr
	rows     [][]Expr
	tcols    []tuple.Column
	names    []string
	stmts    []Stmt
}

func (a *arena) reset() {
	a.bins = a.bins[:0]
	a.nots = a.nots[:0]
	a.cols = a.cols[:0]
	a.ints = a.ints[:0]
	a.params = a.params[:0]
	a.aggs = a.aggs[:0]
	a.selects = a.selects[:0]
	a.explains = a.explains[:0]
	a.creates = a.creates[:0]
	a.drops = a.drops[:0]
	a.deletes = a.deletes[:0]
	a.inserts = a.inserts[:0]
	a.items = a.items[:0]
	a.refs = a.refs[:0]
	a.orders = a.orders[:0]
	a.exprs = a.exprs[:0]
	a.rows = a.rows[:0]
	a.tcols = a.tcols[:0]
	a.names = a.names[:0]
	a.stmts = a.stmts[:0]
}

func (a *arena) newBinary(op BinaryOp, l, r Expr) *BinaryExpr {
	a.bins = append(a.bins, BinaryExpr{Op: op, L: l, R: r})
	return &a.bins[len(a.bins)-1]
}

func (a *arena) newNot(e Expr) *NotExpr {
	a.nots = append(a.nots, NotExpr{E: e})
	return &a.nots[len(a.nots)-1]
}

func (a *arena) newCol(qual, name string) *ColumnRef {
	a.cols = append(a.cols, ColumnRef{Qualifier: qual, Name: name})
	return &a.cols[len(a.cols)-1]
}

func (a *arena) newInt(v int64) *IntLit {
	a.ints = append(a.ints, IntLit{Value: v})
	return &a.ints[len(a.ints)-1]
}

func (a *arena) newParam(name string) *Param {
	a.params = append(a.params, Param{Name: name})
	return &a.params[len(a.params)-1]
}

func (a *arena) newAgg(fn AggFunc) *AggExpr {
	a.aggs = append(a.aggs, AggExpr{Func: fn})
	return &a.aggs[len(a.aggs)-1]
}

// Parser is a reusable zero-allocation SQL parser. The typical pooled cycle
// is Reset(src) followed by one ParseStatement or ParseScript call; the
// returned AST aliases the parser's arena and remains valid only until the
// next Reset (or ReleaseParser). Use the package-level Parse/ParseScript
// when the AST must outlive the call — they dedicate a fresh parser whose
// arena the AST then owns.
//
// The input is prescanned into a reused token slab, so advancing during the
// parse is a pointer bump with no scanner state to thread.
type Parser struct {
	sc      scanner
	toks    []token // prescanned tokens, reused across Resets
	ti      int     // index of the current token
	scanErr error   // lex error recorded behind a tokErr sentinel
	tok     *token  // &toks[ti]
	a       arena
}

// NewParser returns an empty reusable parser.
func NewParser() *Parser { return &Parser{} }

// Reset points the parser at src and recycles the arena, invalidating every
// AST this parser produced earlier.
func (p *Parser) Reset(src string) {
	p.sc.init(src)
	p.a.reset()
	p.toks = p.toks[:0]
	p.ti = 0
	p.scanErr = nil
	p.tok = nil
}

// prescan tokenizes the whole input into the slab. A scan failure becomes a
// trailing tokErr sentinel so it is reported only if parsing reaches it.
// Slots from earlier Resets are overwritten rather than re-zeroed: the
// scanner sets every field a token kind reads.
func (p *Parser) prescan() {
	toks := p.toks[:cap(p.toks)]
	n := 0
	for {
		if n == len(toks) {
			toks = append(toks, token{})
			toks = toks[:cap(toks)]
		}
		t := &toks[n]
		n++
		if err := p.sc.next(t); err != nil {
			t.kind = tokErr
			p.scanErr = err
			break
		}
		if t.kind == TokEOF {
			break
		}
	}
	p.toks = toks[:n]
}

// start prescans and positions the parser on the first token.
func (p *Parser) start() error {
	p.prescan()
	p.ti = 0
	t := &p.toks[0]
	if t.kind == tokErr {
		return p.scanErr
	}
	p.tok = t
	return nil
}

func (p *Parser) next() error {
	if p.ti+1 < len(p.toks) {
		p.ti++
	}
	t := &p.toks[p.ti]
	if t.kind == tokErr {
		return p.scanErr
	}
	p.tok = t
	return nil
}

var parserPool = sync.Pool{New: func() interface{} { return NewParser() }}

// AcquireParser returns a parser from a process-wide pool. ASTs it produces
// alias the parser's arena: parse, use the AST, then ReleaseParser — after
// that (or after Reset) the AST must not be touched.
func AcquireParser() *Parser { return parserPool.Get().(*Parser) }

// ReleaseParser returns p to the pool, invalidating all ASTs it produced.
func ReleaseParser(p *Parser) {
	p.sc.src = ""
	p.tok = nil
	parserPool.Put(p)
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
// The returned AST owns its backing memory.
func Parse(src string) (Stmt, error) {
	p := NewParser()
	p.Reset(src)
	return p.ParseStatement()
}

// ParseScript parses a semicolon-separated sequence of statements. The
// returned ASTs own their backing memory.
func ParseScript(src string) ([]Stmt, error) {
	p := NewParser()
	p.Reset(src)
	return p.ParseScript()
}

// ParseStatement parses the source given to Reset as one statement (a
// trailing semicolon is allowed).
func (p *Parser) ParseStatement() (Stmt, error) {
	if err := p.start(); err != nil {
		return nil, err
	}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.isSym(';') {
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != TokEOF {
		return nil, p.errf("unexpected %s after statement", p.tok.describe())
	}
	return st, nil
}

// ParseScript parses the source given to Reset as a semicolon-separated
// sequence of statements.
func (p *Parser) ParseScript() ([]Stmt, error) {
	if err := p.start(); err != nil {
		return nil, err
	}
	start := len(p.a.stmts)
	for p.tok.kind != TokEOF {
		if p.isSym(';') {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.a.stmts = append(p.a.stmts, st)
	}
	if len(p.a.stmts) == start {
		return nil, nil
	}
	end := len(p.a.stmts)
	return p.a.stmts[start:end:end], nil
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql:%d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *Parser) isKw(id kwID) bool { return p.tok.kind == TokKeyword && p.tok.kw == id }

func (p *Parser) acceptKw(id kwID) (bool, error) {
	if p.isKw(id) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) expectKw(id kwID) error {
	if !p.isKw(id) {
		return p.errf("expected %s, found %s", kwNames[id], p.tok.describe())
	}
	return p.next()
}

func (p *Parser) isSym(sym byte) bool { return p.tok.kind == TokSymbol && p.tok.sym == sym }

func (p *Parser) acceptSym(sym byte) (bool, error) {
	if p.isSym(sym) {
		return true, p.next()
	}
	return false, nil
}

func symString(sym byte) string {
	switch sym {
	case symLE:
		return "<="
	case symGE:
		return ">="
	case symNE:
		return "<>"
	}
	return string(rune(sym))
}

func (p *Parser) expectSym(sym byte) error {
	if !p.isSym(sym) {
		return p.errf("expected %q, found %s", symString(sym), p.tok.describe())
	}
	return p.next()
}

func (p *Parser) expectIdent() (string, error) {
	if p.tok.kind != TokIdent {
		return "", p.errf("expected identifier, found %s", p.tok.describe())
	}
	name := p.tok.text
	return name, p.next()
}

func (p *Parser) parseStmt() (Stmt, error) {
	if p.tok.kind == TokKeyword {
		switch p.tok.kw {
		case kwCreate:
			return p.parseCreate()
		case kwDrop:
			return p.parseDrop()
		case kwDelete:
			return p.parseDelete()
		case kwInsert:
			return p.parseInsert()
		case kwSelect:
			return p.parseSelect()
		case kwExplain:
			if err := p.next(); err != nil {
				return nil, err
			}
			// ANALYZE is a soft keyword: recognized only here, still usable
			// as an ordinary identifier everywhere else.
			analyze := false
			if p.tok.kind == TokIdent && isAnalyzeWord(p.tok.text) {
				analyze = true
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if !p.isKw(kwSelect) {
				return nil, p.errf("expected SELECT after EXPLAIN, found %s", p.tok.describe())
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			p.a.explains = append(p.a.explains, Explain{Select: sel, Analyze: analyze})
			return &p.a.explains[len(p.a.explains)-1], nil
		}
	}
	return nil, p.errf("expected statement, found %s", p.tok.describe())
}

func isAnalyzeWord(s string) bool {
	if len(s) != 7 {
		return false
	}
	const want = "ANALYZE"
	for i := 0; i < 7; i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

func (p *Parser) parseCreate() (Stmt, error) {
	if err := p.next(); err != nil { // CREATE
		return nil, err
	}
	if err := p.expectKw(kwTable); err != nil {
		return nil, err
	}
	p.a.creates = append(p.a.creates, CreateTable{})
	st := &p.a.creates[len(p.a.creates)-1]
	if ok, err := p.acceptKw(kwIf); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw(kwNot); err != nil {
			return nil, err
		}
		if err := p.expectKw(kwExists); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectSym('('); err != nil {
		return nil, err
	}
	start := len(p.a.tcols)
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if !p.isKw(kwInt) && !p.isKw(kwInteger) {
			return nil, p.errf("expected column type, found %s", p.tok.describe())
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		p.a.tcols = append(p.a.tcols, tuple.Column{Name: col, Kind: tuple.KindInt})
		if ok, err := p.acceptSym(','); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectSym(')'); err != nil {
		return nil, err
	}
	end := len(p.a.tcols)
	st.Cols = p.a.tcols[start:end:end]
	return st, nil
}

func (p *Parser) parseDrop() (Stmt, error) {
	if err := p.next(); err != nil { // DROP
		return nil, err
	}
	if err := p.expectKw(kwTable); err != nil {
		return nil, err
	}
	p.a.drops = append(p.a.drops, DropTable{})
	st := &p.a.drops[len(p.a.drops)-1]
	if ok, err := p.acceptKw(kwIf); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw(kwExists); err != nil {
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

func (p *Parser) parseDelete() (Stmt, error) {
	if err := p.next(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKw(kwFrom); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.a.deletes = append(p.a.deletes, DeleteAll{Name: name})
	return &p.a.deletes[len(p.a.deletes)-1], nil
}

func (p *Parser) parseInsert() (Stmt, error) {
	if err := p.next(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKw(kwInto); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.a.inserts = append(p.a.inserts, Insert{Table: name})
	st := &p.a.inserts[len(p.a.inserts)-1]
	if ok, err := p.acceptSym('('); err != nil {
		return nil, err
	} else if ok {
		start := len(p.a.names)
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			p.a.names = append(p.a.names, col)
			if ok, err := p.acceptSym(','); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectSym(')'); err != nil {
			return nil, err
		}
		end := len(p.a.names)
		st.Cols = p.a.names[start:end:end]
	}
	switch {
	case p.isKw(kwValues):
		if err := p.next(); err != nil {
			return nil, err
		}
		rowsStart := len(p.a.rows)
		for {
			if err := p.expectSym('('); err != nil {
				return nil, err
			}
			exprStart := len(p.a.exprs)
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				p.a.exprs = append(p.a.exprs, e)
				if ok, err := p.acceptSym(','); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
			if err := p.expectSym(')'); err != nil {
				return nil, err
			}
			exprEnd := len(p.a.exprs)
			p.a.rows = append(p.a.rows, p.a.exprs[exprStart:exprEnd:exprEnd])
			if ok, err := p.acceptSym(','); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		rowsEnd := len(p.a.rows)
		st.Rows = p.a.rows[rowsStart:rowsEnd:rowsEnd]
		return st, nil
	case p.isKw(kwSelect):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
		return st, nil
	default:
		return nil, p.errf("expected VALUES or SELECT, found %s", p.tok.describe())
	}
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.next(); err != nil { // SELECT
		return nil, err
	}
	p.a.selects = append(p.a.selects, Select{})
	sel := &p.a.selects[len(p.a.selects)-1]
	// Select list.
	itemStart := len(p.a.items)
	for {
		if p.isSym('*') {
			// "SELECT *": a bare * at item head is a star item (qualified
			// refs are handled in parsePrimary).
			if err := p.next(); err != nil {
				return nil, err
			}
			p.a.items = append(p.a.items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if ok, err := p.acceptKw(kwAs); err != nil {
				return nil, err
			} else if ok {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.tok.kind == TokIdent {
				// Implicit alias: SELECT a b
				item.Alias = p.tok.text
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			p.a.items = append(p.a.items, item)
		}
		if ok, err := p.acceptSym(','); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	itemEnd := len(p.a.items)
	sel.Items = p.a.items[itemStart:itemEnd:itemEnd]
	if err := p.expectKw(kwFrom); err != nil {
		return nil, err
	}
	refStart := len(p.a.refs)
	for {
		tbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: tbl}
		if ok, err := p.acceptKw(kwAs); err != nil {
			return nil, err
		} else if ok {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Alias = alias
		} else if p.tok.kind == TokIdent {
			ref.Alias = p.tok.text
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		p.a.refs = append(p.a.refs, ref)
		if ok, err := p.acceptSym(','); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	refEnd := len(p.a.refs)
	sel.From = p.a.refs[refStart:refEnd:refEnd]
	if ok, err := p.acceptKw(kwWhere); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if ok, err := p.acceptKw(kwGroup); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw(kwBy); err != nil {
			return nil, err
		}
		start := len(p.a.exprs)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.a.exprs = append(p.a.exprs, e)
			if ok, err := p.acceptSym(','); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		end := len(p.a.exprs)
		sel.GroupBy = p.a.exprs[start:end:end]
	}
	if ok, err := p.acceptKw(kwHaving); err != nil {
		return nil, err
	} else if ok {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if ok, err := p.acceptKw(kwOrder); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKw(kwBy); err != nil {
			return nil, err
		}
		start := len(p.a.orders)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if ok, err := p.acceptKw(kwDesc); err != nil {
				return nil, err
			} else if ok {
				oi.Desc = true
			} else if ok, err := p.acceptKw(kwAsc); err != nil {
				return nil, err
			} else if ok { //nolint:staticcheck // explicit ASC accepted
			}
			p.a.orders = append(p.a.orders, oi)
			if ok, err := p.acceptSym(','); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		end := len(p.a.orders)
		sel.OrderBy = p.a.orders[start:end:end]
	}
	return sel, nil
}

// Expression precedence levels, loosest to tightest: one per layer of the
// expr rules in the grammar at the head of this file.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precPrimary
)

// binOp classifies the current token as a binary operator, returning its
// precedence level (0 when it is not an operator).
func (p *Parser) binOp() (BinaryOp, int) {
	switch p.tok.kind {
	case TokKeyword:
		switch p.tok.kw {
		case kwOr:
			return OpOr, precOr
		case kwAnd:
			return OpAnd, precAnd
		}
	case TokSymbol:
		switch p.tok.sym {
		case '=':
			return OpEq, precCmp
		case symNE:
			return OpNe, precCmp
		case '<':
			return OpLt, precCmp
		case symLE:
			return OpLe, precCmp
		case '>':
			return OpGt, precCmp
		case symGE:
			return OpGe, precCmp
		case '+':
			return OpAdd, precAdd
		case '-':
			return OpSub, precAdd
		case '*':
			return OpMul, precMul
		case '/':
			return OpDiv, precMul
		}
	}
	return "", 0
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseAtPrec(precOr) }

// parseAtPrec is a precedence climber equivalent to the layered grammar
// above: one operand plus a loop that consumes operators binding at least
// as tightly as min, instead of one recursion level per grammar rule.
//
// Two features of the layered grammar need explicit care. Prefix NOT sits
// between AND and comparison, so it is admitted only when min is loose
// enough to have reached the notExpr rule. And the comparison level is
// non-associative: in the layered form a second comparison operator falls
// through the or/and loops and surfaces as the caller's "unexpected"
// error. The climb reproduces that with cmpBarred — once anything at or
// below the comparison level has been reduced (OR, AND, a comparison, or
// a NOT head, all of which yield a node above the cmp rule), a following
// comparison operator ends the climb and is left for the caller.
func (p *Parser) parseAtPrec(min int) (Expr, error) {
	var l Expr
	cmpBarred := false
	if min <= precNot && p.isKw(kwNot) {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseAtPrec(precNot)
		if err != nil {
			return nil, err
		}
		l = p.a.newNot(e)
		cmpBarred = true
	} else {
		var err error
		l, err = p.parsePrimary()
		if err != nil {
			return nil, err
		}
	}
	for {
		op, prec := p.binOp()
		if prec < min || (prec == precCmp && cmpBarred) {
			return l, nil
		}
		if prec <= precCmp {
			cmpBarred = true
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		// A comparison's operands are addExprs in the layered grammar;
		// every other operator's right operand is the next-tighter level.
		rmin := prec + 1
		if prec == precCmp {
			rmin = precAdd
		}
		r, err := p.parseAtPrec(rmin)
		if err != nil {
			return nil, err
		}
		l = p.a.newBinary(op, l, r)
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == TokInt:
		if p.tok.intBad {
			return nil, p.errf("bad integer literal %q", p.tok.text)
		}
		v := p.tok.ival
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.a.newInt(v), nil

	case p.tok.kind == TokParam:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.a.newParam(name), nil

	case p.isSym('('):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(')'); err != nil {
			return nil, err
		}
		return e, nil

	case p.isSym('-'):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return p.a.newBinary(OpSub, p.a.newInt(0), e), nil

	case p.isKw(kwCount) || p.isKw(kwSum) || p.isKw(kwMin) || p.isKw(kwMax):
		fn := AggFunc(p.tok.text) // canonical constant, no copy
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectSym('('); err != nil {
			return nil, err
		}
		agg := p.a.newAgg(fn)
		if ok, err := p.acceptSym('*'); err != nil {
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
		if err := p.expectSym(')'); err != nil {
			return nil, err
		}
		return agg, nil

	case p.tok.kind == TokIdent:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		if ok, err := p.acceptSym('.'); err != nil {
			return nil, err
		} else if ok {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return p.a.newCol(name, col), nil
		}
		return p.a.newCol("", name), nil

	default:
		return nil, p.errf("expected expression, found %s", p.tok.describe())
	}
}
