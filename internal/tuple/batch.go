package tuple

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// BatchSize is the default number of rows a vectorized operator processes
// per NextBatch call. 1024 rows of int64 columns keep a handful of columns
// inside the L1/L2 caches while amortizing per-call overhead.
const BatchSize = 1024

// ColVec is one column of a Batch: a dense vector of integers.
type ColVec struct {
	I []int64
}

// Batch is a column-major slice of rows: one ColVec per schema column plus
// an optional selection vector. Operators exchange batches instead of
// single tuples; a batch returned by NextBatch is valid only until the
// next NextBatch or Close call on the producing operator (producers reuse
// their buffers), so consumers must finish with it — or copy what they
// keep — before pulling again.
//
// The selection vector, when non-nil, lists the physical row indexes that
// are logically present, in order. Filters produce selections instead of
// copying survivors; downstream operators iterate through the selection,
// and Clone copies only the rows it selects.
type Batch struct {
	schema *Schema
	Cols   []ColVec
	n      int     // physical row count
	sel    []int32 // live physical rows in order; nil = all n rows
}

// NewBatch returns an empty batch for the given schema.
func NewBatch(s *Schema) *Batch {
	return &Batch{schema: s, Cols: make([]ColVec, s.Len())}
}

// Schema returns the batch's schema.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the logical (selected) row count.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// NumPhysical returns the physical row count, ignoring any selection.
func (b *Batch) NumPhysical() int { return b.n }

// Sel returns the selection vector (nil when every physical row is live).
func (b *Batch) Sel() []int32 { return b.sel }

// SetSel installs a selection vector over the batch's physical rows.
func (b *Batch) SetSel(sel []int32) { b.sel = sel }

// RowIdx maps a logical row index to its physical index.
func (b *Batch) RowIdx(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// Reset empties the batch for refilling, keeping column capacity.
func (b *Batch) Reset() {
	for i := range b.Cols {
		b.Cols[i].I = b.Cols[i].I[:0]
	}
	b.n = 0
	b.sel = nil
}

// Grow pre-sizes every column vector so at least n further rows can be
// appended without reallocation. Operators that know their output
// cardinality (gathers, hash-join builds, sort materialization) call this
// once instead of paying growslice+memmove on every doubling.
func (b *Batch) Grow(n int) {
	if n <= 0 {
		return
	}
	for c := range b.Cols {
		if col := b.Cols[c].I; cap(col)-len(col) < n {
			b.Cols[c].I = append(make([]int64, 0, len(col)+n), col...)
		}
	}
}

// AppendRow copies the physical row phys of src (same column layout) onto
// the end of b.
func (b *Batch) AppendRow(src *Batch, phys int) {
	for i := range b.Cols {
		b.Cols[i].I = append(b.Cols[i].I, src.Cols[i].I[phys])
	}
	b.n++
}

// BumpRow records that one physical row has been appended to every column
// by an external writer (used by operators that build rows column by
// column, e.g. join output assembly).
func (b *Batch) BumpRow() { b.n++ }

// BumpRows records that n physical rows have been appended to every
// column vector (the bulk twin of BumpRow).
func (b *Batch) BumpRows(n int) { b.n += n }

// Append copies every logical row of src onto the end of b (same column
// layout).
func (b *Batch) Append(src *Batch) { b.AppendRange(src, 0, src.Len()) }

// AppendRange copies the logical rows [from, to) of src onto the end of b
// (same column layout). Dense sources append column slices — a few
// memmoves instead of a per-row, per-column gather.
func (b *Batch) AppendRange(src *Batch, from, to int) {
	if src.sel == nil {
		for c := range b.Cols {
			b.Cols[c].I = append(b.Cols[c].I, src.Cols[c].I[from:to]...)
		}
		b.n += to - from
		return
	}
	sel := src.sel[from:to]
	for c := range b.Cols {
		dst, v := slices.Grow(b.Cols[c].I, len(sel)), src.Cols[c].I
		for _, phys := range sel {
			dst = append(dst, v[phys])
		}
		b.Cols[c].I = dst
	}
	b.n += len(sel)
}

// View sets dst to a batch of the given columns under schema s that
// shares b's row count and selection vector, and returns dst; nothing is
// copied. An operator keeps dst across pulls, so a view costs no
// allocation. Each column must hold one value per physical row of b.
func (b *Batch) View(dst *Batch, s *Schema, cols []ColVec) *Batch {
	*dst = Batch{schema: s, Cols: cols, n: b.n, sel: b.sel}
	return dst
}

// Clone returns a dense deep copy of the batch's logical rows, its
// columns carved from one allocation.
func (b *Batch) Clone() *Batch {
	out := NewBatch(b.schema)
	n := b.Len()
	buf := make([]int64, n*len(b.Cols))
	for c := range b.Cols {
		col, oc := b.Cols[c].I, buf[c*n:(c+1)*n:(c+1)*n]
		if b.sel == nil {
			copy(oc, col[:n])
		} else {
			for i, phys := range b.sel {
				oc[i] = col[phys]
			}
		}
		out.Cols[c].I = oc
	}
	out.n = n
	return out
}

// CompareRows orders logical row i of b against logical row j of o on the
// paired key columns, with per-key descending flags (nil desc = all
// ascending).
func (b *Batch) CompareRows(i int, o *Batch, j int, bCols, oCols []int, desc []bool) int {
	bi, oj := b.RowIdx(i), o.RowIdx(j)
	for k := range bCols {
		if c := cmp.Compare(b.Cols[bCols[k]].I[bi], o.Cols[oCols[k]].I[oj]); c != 0 {
			if desc != nil && desc[k] {
				return -c
			}
			return c
		}
	}
	return 0
}

// AppendIntColumns appends n rows decoded from a column-major block of
// little-endian int64 slots — the heap file's page layout. src starts at
// the first row's slot of column 0; column c's slots follow at
// src[c*stride*8:].
func (b *Batch) AppendIntColumns(src []byte, stride, n int) error {
	if err := b.checkIntColumns(len(src), stride, n); err != nil {
		return err
	}
	for c := range b.Cols {
		col, in := &b.Cols[c], src[c*stride*8:]
		old := len(col.I)
		col.I = slices.Grow(col.I, n)[:old+n]
		out := col.I[old:]
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(in[i*8:]))
		}
	}
	b.n += n
	return nil
}

// PutIntColumns is the inverse of AppendIntColumns: it writes the logical
// rows [from, from+n) into the column-major block dst, reading through the
// selection vector when one is installed. When rng is non-nil (one Range
// per column), each column's range is widened to cover the values written,
// in the same loop.
func (b *Batch) PutIntColumns(dst []byte, stride, from, n int, rng []Range) error {
	if err := b.checkIntColumns(len(dst), stride, n); err != nil {
		return err
	}
	for c := range b.Cols {
		col, out := b.Cols[c].I, dst[c*stride*8:]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		if b.sel == nil {
			for i, v := range col[from : from+n] {
				binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
				lo, hi = min(lo, v), max(hi, v)
			}
		} else {
			for i, phys := range b.sel[from : from+n] {
				v := col[phys]
				binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		if rng != nil && n > 0 {
			rng[c] = Range{Lo: min(rng[c].Lo, lo), Hi: max(rng[c].Hi, hi)}
		}
	}
	return nil
}

// checkIntColumns guards the column-major codec: n slots of the last
// column must lie inside a block of size bytes.
func (b *Batch) checkIntColumns(size, stride, n int) error {
	if ((len(b.Cols)-1)*stride+n)*8 > size {
		return fmt.Errorf("tuple: %d rows of %d columns overrun a %d-byte column block", n, len(b.Cols), size)
	}
	return nil
}
