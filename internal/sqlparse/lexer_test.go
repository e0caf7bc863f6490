package sqlparse

// Token is one lexical token with its source position (1-based line/col),
// the form the lexer tests and the legacy oracle read tokens in.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; idents keep original case
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return t.Text
}

// tokenize lexes the whole of src through the parser's scanner.
func tokenize(src string) ([]Token, error) {
	var s scanner
	s.init(src)
	var out []Token
	for {
		var t token
		if err := s.next(&t); err != nil {
			return nil, err
		}
		text := t.text
		switch t.kind {
		case TokSymbol:
			text = symString(t.sym)
		case TokEOF:
			text = ""
		}
		out = append(out, Token{Kind: t.kind, Text: text, Line: t.line, Col: t.col})
		if t.kind == TokEOF {
			return out, nil
		}
	}
}
