// Package sqlparse implements the lexer, AST, and parser for the SQL subset
// the paper's queries use: CREATE/DROP TABLE over INT columns, INSERT
// (VALUES and INSERT ... SELECT), DELETE, and SELECT with joins, WHERE,
// GROUP BY, HAVING, ORDER BY, COUNT/SUM/MIN/MAX, named parameters
// (:minsupport), and EXPLAIN [ANALYZE]. The grammar is written out in EBNF
// at the head of parser.go; anything outside it is a positioned error.
//
// The front end is allocation-free on the hot path: the scanner walks the
// source string byte by byte, token text is a substring sharing the source's
// backing array, keywords are matched case-insensitively against a
// length-bucketed table (no ToUpper, no map), and the parser allocates AST
// nodes from a per-parser arena that Reset recycles. Steady-state parsing of
// the paper's Figure-4 statement set runs at 0 allocs/op.
package sqlparse

import (
	"fmt"
	"math"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokParam  // :name
	TokSymbol // punctuation and operators
)

// kwID identifies a keyword. Matching a word yields an ID so the parser
// compares small integers instead of strings. STRING, VARCHAR, DISTINCT and
// LIMIT are reserved words that no production uses: they are never
// identifiers, so each fails where it stands.
type kwID uint8

const (
	kwNone kwID = iota
	kwSelect
	kwFrom
	kwWhere
	kwGroup
	kwBy
	kwHaving
	kwOrder
	kwAsc
	kwDesc
	kwAnd
	kwOr
	kwNot
	kwInsert
	kwInto
	kwValues
	kwCreate
	kwTable
	kwDrop
	kwDelete
	kwAs
	kwInt
	kwInteger
	kwStringT
	kwVarchar
	kwCount
	kwSum
	kwMin
	kwMax
	kwDistinct
	kwLimit
	kwIf
	kwExists
	kwExplain
	numKeywords
)

// kwNames holds each keyword's canonical upper-case spelling; token text for
// keywords aliases these constants, so no per-token string is built.
var kwNames = [numKeywords]string{
	kwSelect: "SELECT", kwFrom: "FROM", kwWhere: "WHERE", kwGroup: "GROUP",
	kwBy: "BY", kwHaving: "HAVING", kwOrder: "ORDER", kwAsc: "ASC",
	kwDesc: "DESC", kwAnd: "AND", kwOr: "OR", kwNot: "NOT",
	kwInsert: "INSERT", kwInto: "INTO", kwValues: "VALUES",
	kwCreate: "CREATE", kwTable: "TABLE", kwDrop: "DROP", kwDelete: "DELETE",
	kwAs: "AS", kwInt: "INT", kwInteger: "INTEGER", kwStringT: "STRING",
	kwVarchar: "VARCHAR", kwCount: "COUNT", kwSum: "SUM", kwMin: "MIN",
	kwMax: "MAX", kwDistinct: "DISTINCT", kwLimit: "LIMIT", kwIf: "IF",
	kwExists: "EXISTS", kwExplain: "EXPLAIN",
}

// maxKeywordLen bounds the length buckets below.
const maxKeywordLen = 8

// kwIndex buckets keyword IDs by (spelling length, first letter) so a
// candidate word is compared against at most two same-shape keywords, and
// kwPacked holds each keyword's bytes packed into a uint64 (all keywords are
// at most 8 bytes) so that comparison is a single integer equality.
var (
	kwIndex  [maxKeywordLen + 1][26][]kwID
	kwPacked [numKeywords]uint64
	// kwMask[n] has bit (c0-'A') set iff some keyword of length n starts
	// with letter c0 — a one-load rejection test for most identifiers.
	kwMask [maxKeywordLen + 1]uint32
)

// Byte classification tables. They reproduce the previous lexer's semantics
// exactly: a byte is an identifier character iff unicode.IsLetter /
// unicode.IsDigit said so for the byte interpreted as a rune (which admits
// Latin-1 letters), precomputed so the scan is a table lookup per byte.
// classTab dispatches the first byte of a token to its scan routine in one
// load.
const (
	clsBad   = iota // no token starts with this byte
	clsIdent        // identifier or keyword start
	clsDigit        // integer literal
	clsColon        // :parameter
	clsSym2         // < > ! — may start a two-character operator
	clsSym1         // single-character symbol
)

var (
	identStartTab [256]bool
	identPartTab  [256]bool
	digitTab      [256]bool
	classTab      [256]uint8
)

func init() {
	for i := 1; i < len(kwNames); i++ {
		n := len(kwNames[i])
		c0 := kwNames[i][0] - 'A'
		kwIndex[n][c0] = append(kwIndex[n][c0], kwID(i))
		kwMask[n] |= 1 << c0
		var v uint64
		for j := 0; j < n; j++ {
			v = v<<8 | uint64(kwNames[i][j])
		}
		kwPacked[i] = v
	}
	for i := 0; i < 256; i++ {
		r := rune(i)
		identStartTab[i] = i == '_' || unicode.IsLetter(r)
		identPartTab[i] = i == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
		digitTab[i] = unicode.IsDigit(r)
		switch {
		case identStartTab[i]:
			classTab[i] = clsIdent
		case digitTab[i]:
			classTab[i] = clsDigit
		case i == ':':
			classTab[i] = clsColon
		case i == '<' || i == '>' || i == '!':
			classTab[i] = clsSym2
		default:
			classTab[i] = clsBad
		}
	}
	for _, c := range "(),;*=.+-/" {
		classTab[c] = clsSym1
	}
}

// lookupKeyword matches word case-insensitively against the keyword table,
// returning kwNone for non-keywords. No allocation, no map access. Keywords
// are pure A-Z, so folding a candidate byte with &^0x20 matches exactly the
// two case variants of each keyword letter and nothing else.
func lookupKeyword(word string) kwID {
	n := len(word)
	if n < 2 || n > maxKeywordLen {
		return kwNone
	}
	c0 := word[0] &^ 0x20
	if c0 < 'A' || c0 > 'Z' || kwMask[n]>>(c0-'A')&1 == 0 {
		return kwNone
	}
	bucket := kwIndex[n][c0-'A']
	v := uint64(c0)
	for i := 1; i < n; i++ {
		v = v<<8 | uint64(word[i]&^0x20)
	}
	for _, id := range bucket {
		if kwPacked[id] == v {
			return id
		}
	}
	return kwNone
}

// tokErr is an internal sentinel kind: the parser prescans the whole input
// into a token slab, and a scan failure is recorded as a tokErr token at the
// point of failure so the error surfaces only if parsing actually reaches
// it — identical semantics to lexing lazily.
const tokErr TokenKind = -1

// Two-character operators get synthetic symbol codes outside the ASCII
// range; single-character symbols use the character itself.
const (
	symLE byte = 0x80 // <=
	symGE byte = 0x81 // >=
	symNE byte = 0x82 // <> (and !=, normalized)
)

// token is the scanner's internal token: text borrows the source (or a
// canonical keyword constant), so producing one never allocates. Fields
// beyond kind, line, and col are only meaningful for the kinds that set
// them: symbol tokens carry sym (their text is derived on demand), int
// tokens carry ival/intBad, and so on.
type token struct {
	kind   TokenKind
	kw     kwID   // valid when kind == TokKeyword
	sym    byte   // valid when kind == TokSymbol
	intBad bool   // TokInt: literal does not fit in int64
	ival   int64  // valid when kind == TokInt
	text   string // valid for ident/keyword/int/param
	line   int
	col    int
}

// describe renders the token for error messages.
func (t *token) describe() string {
	switch t.kind {
	case TokEOF:
		return "end of input"
	case TokSymbol:
		return symString(t.sym)
	default:
		return t.text
	}
}

// scanner is the zero-allocation lexer core.
type scanner struct {
	src       string
	pos       int
	line      int // 1-based
	lineStart int // byte offset where the current line begins
}

func (s *scanner) init(src string) {
	s.src = src
	s.pos = 0
	s.line = 1
	s.lineStart = 0
}

// next scans one token into t. After the input is exhausted it yields TokEOF
// forever. Position state lives in locals through the whitespace/comment
// skip so the byte loops are register-resident.
func (s *scanner) next(t *token) error {
	src := s.src
	pos := s.pos
	line := s.line
	lineStart := s.lineStart
skip:
	for pos < len(src) {
		switch src[pos] {
		case ' ', '\t', '\r':
			pos++
		case '\n':
			pos++
			line++
			lineStart = pos
		case '-':
			if pos+1 < len(src) && src[pos+1] == '-' {
				for pos < len(src) && src[pos] != '\n' {
					pos++
				}
				continue
			}
			break skip
		default:
			break skip
		}
	}
	s.pos = pos
	s.line = line
	s.lineStart = lineStart
	t.line = line
	t.col = pos - lineStart + 1
	if pos >= len(src) {
		t.kind = TokEOF
		return nil
	}
	c := src[pos]
	switch classTab[c] {
	case clsIdent:
		start := pos
		pos++
		for pos < len(src) && identPartTab[src[pos]] {
			pos++
		}
		s.pos = pos
		word := src[start:pos]
		if id := lookupKeyword(word); id != kwNone {
			t.kind = TokKeyword
			t.kw = id
			t.text = kwNames[id]
		} else {
			t.kind = TokIdent
			t.text = word
		}
		return nil

	case clsDigit:
		start := pos
		var v int64
		bad := false
		for pos < len(src) && digitTab[src[pos]] {
			d := int64(src[pos] - '0')
			if v > (math.MaxInt64-d)/10 {
				bad = true // keep consuming; the parser reports the error
			} else {
				v = v*10 + d
			}
			pos++
		}
		s.pos = pos
		t.kind = TokInt
		t.text = src[start:pos]
		t.ival = v
		t.intBad = bad
		return nil

	case clsColon:
		pos++
		if pos >= len(src) || !identStartTab[src[pos]] {
			return fmt.Errorf("sql:%d:%d: expected parameter name after ':'", t.line, t.col)
		}
		start := pos
		for pos < len(src) && identPartTab[src[pos]] {
			pos++
		}
		s.pos = pos
		t.kind = TokParam
		t.text = src[start:pos]
		return nil

	case clsSym2:
		if pos+1 < len(src) {
			c2 := src[pos+1]
			var sym byte
			switch {
			case c == '<' && c2 == '>':
				sym = symNE
			case c == '!' && c2 == '=':
				sym = symNE // normalized to <>
			case c == '<' && c2 == '=':
				sym = symLE
			case c == '>' && c2 == '=':
				sym = symGE
			}
			if sym != 0 {
				s.pos = pos + 2
				t.kind = TokSymbol
				t.sym = sym
				return nil
			}
		}
		if c == '!' { // bare ! is not a symbol
			return fmt.Errorf("sql:%d:%d: unexpected character %q", t.line, t.col, c)
		}
		t.kind = TokSymbol
		t.sym = c
		s.pos = pos + 1
		return nil

	case clsSym1:
		t.kind = TokSymbol
		t.sym = c
		s.pos = pos + 1
		return nil

	default:
		return fmt.Errorf("sql:%d:%d: unexpected character %q", t.line, t.col, c)
	}
}
