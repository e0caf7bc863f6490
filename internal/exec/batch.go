// The pull contract's helpers: the joins' shared input cursor, DrainBatches,
// and the column-wise row appenders.
package exec

import (
	"io"

	"setm/internal/tuple"
)

// batchCursor tracks a row position in a stream of batches pulled from an
// operator — the shared input-advance state of the join operators.
type batchCursor struct {
	src Operator
	b   *tuple.Batch
	i   int
	eof bool
}

func (c *batchCursor) reset(src Operator) { c.src, c.b, c.i, c.eof = src, nil, 0, false }

// ensure makes (b, i) reference a valid row, pulling batches as needed.
// It returns false at end of input.
func (c *batchCursor) ensure() (bool, error) {
	for !c.eof && (c.b == nil || c.i >= c.b.Len()) {
		b, err := c.src.NextBatch()
		if err == io.EOF {
			c.eof = true
			c.b = nil
			return false, nil
		}
		if err != nil {
			return false, err
		}
		c.b, c.i = b, 0
	}
	return !c.eof, nil
}

// DrainBatches pulls every batch from op (calling Open and Close),
// returning dense copies safe to keep after the operator is closed.
func DrainBatches(op Operator) ([]*tuple.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []*tuple.Batch
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			out = append(out, b.Clone())
		}
	}
}

// appendJoinRow appends the concatenation of left's logical row li and
// right's logical row ri to out, whose columns are left's followed by
// right's.
func appendJoinRow(out, left *tuple.Batch, li int, right *tuple.Batch, ri int) {
	lp, rp := left.RowIdx(li), right.RowIdx(ri)
	nl := len(left.Cols)
	for c := range left.Cols {
		out.Cols[c].I = append(out.Cols[c].I, left.Cols[c].I[lp])
	}
	for c := range right.Cols {
		out.Cols[nl+c].I = append(out.Cols[nl+c].I, right.Cols[c].I[rp])
	}
	out.BumpRow()
}

// appendJoinRows bulk-appends n join rows pairing left's logical row li
// with right's physical rows [ri, ri+n): the left values repeat, the
// right columns append as slices. right must be dense (no selection) —
// the join's buffered group always is.
func appendJoinRows(out, left *tuple.Batch, li int, right *tuple.Batch, ri, n int) {
	lp := left.RowIdx(li)
	nl := len(left.Cols)
	for c := range left.Cols {
		dst, v := &out.Cols[c], left.Cols[c].I[lp]
		for k := 0; k < n; k++ {
			dst.I = append(dst.I, v)
		}
	}
	for c := range right.Cols {
		dst := &out.Cols[nl+c]
		dst.I = append(dst.I, right.Cols[c].I[ri:ri+n]...)
	}
	out.BumpRows(n)
}
