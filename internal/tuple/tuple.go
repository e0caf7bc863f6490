// Package tuple defines the schema shared by every layer of the relational
// micro-engine and the column batch the operators exchange. Rows have one
// form: int64 column vectors in a Batch; a caller that wants rows one at a
// time reads them as []int64 (exec.Drain).
//
// Every stored column is a 64-bit integer: SALES, R'_k, C_k and R_k hold
// item codes, transaction ids and counts and nothing else (the paper uses
// 4-byte integers; we widen to 64 bits).
package tuple

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Kind is a column's declared type. INT is the only one; CREATE TABLE
// carries it so a statement prints back as it was written.
type Kind uint8

// KindInt is a 64-bit signed integer column.
const KindInt Kind = 0

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	if k == KindInt {
		return "INT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Range bounds the values of one INT column: Lo <= v <= Hi for every
// row. A bound may be wider than the data, never narrower. The bound of no
// rows has Lo > Hi (EmptyRange); FullRange bounds any column.
type Range struct{ Lo, Hi int64 }

var (
	// EmptyRange bounds a column with no rows.
	EmptyRange = Range{Lo: math.MaxInt64, Hi: math.MinInt64}
	// FullRange bounds every column.
	FullRange = Range{Lo: math.MinInt64, Hi: math.MaxInt64}
)

// Span is Hi - Lo as an unsigned count: the largest offset of a value
// from Lo. Two's-complement subtraction gives it for any signed range.
// An empty range has span 0.
func (r Range) Span() uint64 {
	if r.Lo > r.Hi {
		return 0
	}
	return uint64(r.Hi) - uint64(r.Lo)
}

// Bits is the width of the offsets v - Lo: 0 when the range holds at most
// one value, 64 for FullRange.
func (r Range) Bits() uint { return uint(bits.Len64(r.Span())) }

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Schemas are immutable once built;
// helper methods never mutate the receiver.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// IntSchema builds a schema of n integer columns with the given names.
func IntSchema(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Kind: KindInt}
	}
	return &Schema{Cols: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the position of the named column, or -1.
// Matching is case-insensitive, following SQL identifier rules.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Project returns a new schema containing the columns at idxs, in order.
func (s *Schema) Project(idxs []int) *Schema {
	cols := make([]Column, len(idxs))
	for i, ix := range idxs {
		cols[i] = s.Cols[ix]
	}
	return &Schema{Cols: cols}
}

// Concat returns a schema holding the receiver's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return &Schema{Cols: cols}
}

// String renders the schema as "(a INT, b INT)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}
