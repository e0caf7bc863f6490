package exec

import (
	"io"

	"setm/internal/tuple"
)

// MergeJoin is a merge-scan equi-join. Both inputs must arrive sorted on
// their respective key columns. The output tuple is the concatenation of
// the left and right tuples; callers project afterwards.
//
// The batch implementation streams column vectors from both sides and
// replays each matching right-side group for the run of equal left keys.
// A group that ends inside the current right batch is used where it lies;
// one that reaches the batch's end is copied (dense) so its rows survive
// right-batch turnover. SETM's right side is the set of items of a single
// transaction, which is small by construction.
type MergeJoin struct {
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	schema      *tuple.Schema

	// Optional vectorized residual: right column gtRight > left column
	// gtLeft (SETM's lexicographic extension condition), checked on column
	// vectors instead of materialized tuples.
	gtLeft, gtRight int
	hasVecGT        bool

	lcur, rcur batchCursor

	// The right group for curKey is the physical rows [gLo, gHi) of grp:
	// the current right batch, or buf when the group had to be copied.
	grp      *tuple.Batch
	gLo, gHi int
	buf      *tuple.Batch
	curKey   []int64 // key of the group
	haveKey  bool
	matched  bool // current left row is paired with the group
	gi       int  // next group row (physical, in [gLo, gHi]) for the current left row
	gtSorted bool // group is ascending on gtRight: residual selects a suffix

	out *tuple.Batch

	stats OpStats
}

// NewMergeJoin joins left and right on the given key columns.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int) *MergeJoin {
	return &MergeJoin{
		left:      left,
		right:     right,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		schema:    left.Schema().Concat(right.Schema()),
	}
}

// SetVecResidualGT installs the vectorized residual right[rightCol] >
// left[leftCol] (column indexes into each input's own schema).
func (m *MergeJoin) SetVecResidualGT(leftCol, rightCol int) {
	m.gtLeft, m.gtRight = leftCol, rightCol
	m.hasVecGT = true
}

func (m *MergeJoin) Schema() *tuple.Schema { return m.schema }

func (m *MergeJoin) Open() error {
	m.stats.Reset()
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	if m.curKey == nil {
		m.curKey = make([]int64, len(m.leftKeys))
	}
	m.lcur.reset(m.left)
	m.rcur.reset(m.right)
	if m.buf == nil {
		m.buf = tuple.NewBatch(m.right.Schema())
	}
	m.grp, m.gLo, m.gHi = m.buf, 0, 0
	m.haveKey, m.matched = false, false
	return nil
}

func (m *MergeJoin) Close() error {
	err1 := m.left.Close()
	err2 := m.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// keyCmp orders the key columns cols of b's logical row i against key.
func keyCmp(b *tuple.Batch, i int, cols []int, key []int64) int {
	phys := b.RowIdx(i)
	for k, c := range cols {
		if v := b.Cols[c].I[phys]; v != key[k] {
			if v < key[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// keyRun returns the end of the run of b's logical rows, starting at i,
// whose key columns compare to key as want (-1 below it, 0 equal). A
// single key column of a dense batch — every SETM join — is one scan of
// the column vector.
func keyRun(b *tuple.Batch, i int, cols []int, key []int64, want int) int {
	n := b.Len()
	if len(cols) == 1 && b.Sel() == nil {
		col, k := b.Cols[cols[0]].I[:n], key[0]
		if want < 0 {
			for i < n && col[i] < k {
				i++
			}
		} else {
			for i < n && col[i] == k {
				i++
			}
		}
		return i
	}
	for i < n && keyCmp(b, i, cols, key) == want {
		i++
	}
	return i
}

// loadGroup aligns the right side with the current left row's key and
// makes the matching right rows (possibly none) the current group.
func (m *MergeJoin) loadGroup() error {
	// Record the key first: it stays valid even as left batches turn over.
	lphys := m.lcur.b.RowIdx(m.lcur.i)
	for i, lk := range m.leftKeys {
		m.curKey[i] = m.lcur.b.Cols[lk].I[lphys]
	}
	m.haveKey = true
	m.buf.Reset()
	m.grp = nil

	// Skip right rows below the key, then take the equal run: both run ends
	// are found by scanning the key columns of each right batch.
	for below := true; ; {
		ok, err := m.rcur.ensure()
		if err != nil {
			return err
		}
		if !ok {
			break // right exhausted
		}
		b, i, n := m.rcur.b, m.rcur.i, m.rcur.b.Len()
		if below {
			if i = keyRun(b, i, m.rightKeys, m.curKey, -1); i == n {
				m.rcur.i = n
				continue
			}
			below = false
		}
		end := keyRun(b, i, m.rightKeys, m.curKey, 0)
		m.rcur.i = end
		if end < n && b.Sel() == nil && m.buf.Len() == 0 {
			// The whole run lies in b, which stays current until the next
			// loadGroup: use it in place.
			m.grp, m.gLo, m.gHi = b, i, end
			break
		}
		m.buf.AppendRange(b, i, end)
		if end < n {
			break
		} // else the run may continue in the next batch
	}
	if m.grp == nil {
		m.grp, m.gLo, m.gHi = m.buf, 0, m.buf.Len()
	}
	// A group ascending on the residual column lets nextBatch binary-search
	// the first passing row and bulk-append the suffix instead of testing
	// the residual per (left row, group row) pair. SETM's right side is one
	// transaction's items in file order — always ascending — so the fast
	// path is the common case; the scan keeps correctness when it is not.
	if m.hasVecGT {
		m.gtSorted = true
		v := m.grp.Cols[m.gtRight].I[m.gLo:m.gHi]
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1] {
				m.gtSorted = false
				break
			}
		}
	}
	return nil
}

// residualPass evaluates the residual, if any, for (current left row,
// group row gi).
func (m *MergeJoin) residualPass() bool {
	if !m.hasVecGT {
		return true
	}
	lphys := m.lcur.b.RowIdx(m.lcur.i)
	return m.grp.Cols[m.gtRight].I[m.gi] > m.lcur.b.Cols[m.gtLeft].I[lphys]
}

func (m *MergeJoin) nextBatch() (*tuple.Batch, error) {
	if m.out == nil {
		m.out = tuple.NewBatch(m.schema)
	}
	m.out.Reset()
	for m.out.Len() < tuple.BatchSize {
		ok, err := m.lcur.ensure()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !m.matched {
			if !m.haveKey || keyCmp(m.lcur.b, m.lcur.i, m.leftKeys, m.curKey) != 0 {
				if err := m.loadGroup(); err != nil {
					return nil, err
				}
			}
			if m.gLo == m.gHi {
				m.lcur.i++ // no right rows for this key
				continue
			}
			m.gi = m.gLo
			if m.hasVecGT && m.gtSorted {
				// Skip straight to the first group row that passes the
				// residual: the passing rows are the suffix whose gtRight
				// value exceeds the left row's gtLeft value.
				x := m.lcur.b.Cols[m.gtLeft].I[m.lcur.b.RowIdx(m.lcur.i)]
				v := m.grp.Cols[m.gtRight].I[m.gLo:m.gHi]
				lo, hi := 0, len(v)
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if v[mid] <= x {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				m.gi = m.gLo + lo
			}
			m.matched = true
		}
		if m.hasVecGT && m.gtSorted {
			// Every remaining group row passes; emit them in bulk.
			take := m.gHi - m.gi
			if room := tuple.BatchSize - m.out.Len(); take > room {
				take = room
			}
			if take > 0 {
				appendJoinRows(m.out, m.lcur.b, m.lcur.i, m.grp, m.gi, take)
				m.gi += take
			}
		} else {
			for m.gi < m.gHi && m.out.Len() < tuple.BatchSize {
				if m.residualPass() {
					appendJoinRow(m.out, m.lcur.b, m.lcur.i, m.grp, m.gi)
				}
				m.gi++
			}
		}
		if m.gi >= m.gHi {
			m.lcur.i++
			m.matched = false
		} else {
			break // output full mid-group; resume here next call
		}
	}
	if m.out.Len() == 0 {
		return nil, io.EOF
	}
	return m.out, nil
}
