// Package tuple defines the value, schema, and tuple types shared by every
// layer of the relational micro-engine, together with their comparators and
// the column batch the operators exchange.
//
// Every stored column is a 64-bit integer: SALES, R'_k, C_k and R_k hold
// item codes, transaction ids and counts and nothing else (the paper uses
// 4-byte integers; we widen to 64 bits). KindString exists for one purpose,
// the text lines of an EXPLAIN result; no relation stores a string, and no
// operator compares, hashes or sorts one.
package tuple

import (
	"cmp"
	"fmt"
	"strings"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer column.
	KindInt Kind = iota
	// KindString is a line of text in an EXPLAIN result.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single column value: an integer, or (KindString) a line of
// EXPLAIN text in Str. The zero Value is the integer 0.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// I constructs an integer value.
func I(v int64) Value { return Value{Kind: KindInt, Int: v} }

// S constructs a line of EXPLAIN text.
func S(v string) Value { return Value{Kind: KindString, Str: v} }

// Compare orders two integer values numerically.
func Compare(a, b Value) int { return cmp.Compare(a.Int, b.Int) }

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the value for diagnostics and result printing.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	default:
		return v.Str
	}
}

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

// String renders the schema as "(a INT, b STRING)".
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

// Tuple is one row: a slice of values positionally matching a schema.
type Tuple []Value

// Ints builds a tuple of integer values; the common case in SETM where every
// column is an item or transaction identifier.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = I(v)
	}
	return t
}

// Clone returns a deep copy of the tuple (values are immutable, so a shallow
// slice copy suffices).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as "[v1 v2 ...]".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// CompareAt orders two tuples by the columns listed in keyIdxs. A missing
// (out of range) column sorts first, so short tuples order before their
// extensions; callers in this codebase always pass in-range indexes.
func CompareAt(a, b Tuple, keyIdxs []int) int {
	for _, k := range keyIdxs {
		av, bv := a[k], b[k]
		if c := Compare(av, bv); c != 0 {
			return c
		}
	}
	return 0
}

// CompareAll orders two tuples column by column, then by length.
func CompareAll(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// EqualTuples reports whether a and b are the same length and compare equal
// column by column.
func EqualTuples(a, b Tuple) bool { return CompareAll(a, b) == 0 }
