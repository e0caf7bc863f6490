package exec

import (
	"io"

	"setm/internal/tuple"
)

// JoinPredicate is a residual predicate over the concatenated (left, right)
// tuple, applied after the equi-join keys match. SETM's extension step uses
// it for the lexicographic condition q.item > p.item_{k-1}.
type JoinPredicate func(left, right tuple.Tuple) (bool, error)

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
	residual    JoinPredicate
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
	curKey   []tuple.Value // key of the group
	haveKey  bool
	matched  bool // current left row is paired with the group
	gi       int  // next group row (physical, in [gLo, gHi]) for the current left row
	gtSorted bool // group is ascending on gtRight: residual selects a suffix

	intKeys    bool // every join key column is an integer on both sides
	curKeyInts []int64

	out                *tuple.Batch
	lscratch, rscratch tuple.Tuple

	stats OpStats
}

// NewMergeJoin joins left and right on the given key columns.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int, residual JoinPredicate) *MergeJoin {
	return &MergeJoin{
		left:      left,
		right:     right,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		residual:  residual,
		schema:    left.Schema().Concat(right.Schema()),
	}
}

// SetVecResidualGT installs the vectorized residual right[rightCol] >
// left[leftCol] (column indexes into each input's own schema), replacing
// any row residual.
func (m *MergeJoin) SetVecResidualGT(leftCol, rightCol int) {
	m.gtLeft, m.gtRight = leftCol, rightCol
	m.hasVecGT = true
	m.residual = nil
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
	m.intKeys = intKeyColumns(m.left.Schema(), m.right.Schema(), m.leftKeys, m.rightKeys)
	if m.intKeys && m.curKeyInts == nil {
		m.curKeyInts = make([]int64, len(m.leftKeys))
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

// intKeyColumns reports whether every paired join key column is an integer
// on both sides — the condition for the joins' unboxed key paths.
func intKeyColumns(ls, rs *tuple.Schema, leftKeys, rightKeys []int) bool {
	for i := range leftKeys {
		if ls.Cols[leftKeys[i]].Kind != tuple.KindInt || rs.Cols[rightKeys[i]].Kind != tuple.KindInt {
			return false
		}
	}
	return true
}

func (m *MergeJoin) Close() error {
	err1 := m.left.Close()
	err2 := m.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// intKeyCmp orders the integer key columns cols of b's logical row i
// against key.
func intKeyCmp(b *tuple.Batch, i int, cols []int, key []int64) int {
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

// intKeyRun returns the end of the run of b's logical rows, starting at i,
// whose integer key columns compare to key as want (-1 below it, 0 equal).
// A single key column of a dense batch — every SETM join — is one scan of
// the column vector.
func intKeyRun(b *tuple.Batch, i int, cols []int, key []int64, want int) int {
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
	for i < n && intKeyCmp(b, i, cols, key) == want {
		i++
	}
	return i
}

// leftKeyCmpCur orders the current left row's key against the buffered
// group's key.
func (m *MergeJoin) leftKeyCmpCur() int {
	if m.intKeys {
		return intKeyCmp(m.lcur.b, m.lcur.i, m.leftKeys, m.curKeyInts)
	}
	phys := m.lcur.b.RowIdx(m.lcur.i)
	for i, lk := range m.leftKeys {
		col := &m.lcur.b.Cols[lk]
		var v tuple.Value
		if col.Kind == tuple.KindInt {
			v = tuple.I(col.I[phys])
		} else {
			v = tuple.S(col.S[phys])
		}
		if c := tuple.Compare(v, m.curKey[i]); c != 0 {
			return c
		}
	}
	return 0
}

// loadGroup aligns the right side with the current left row's key and
// makes the matching right rows (possibly none) the current group.
func (m *MergeJoin) loadGroup() error {
	// Record the key first: it stays valid even as left batches turn over.
	lphys := m.lcur.b.RowIdx(m.lcur.i)
	if m.intKeys {
		for i, lk := range m.leftKeys {
			m.curKeyInts[i] = m.lcur.b.Cols[lk].I[lphys]
		}
	} else {
		if m.curKey == nil {
			m.curKey = make([]tuple.Value, len(m.leftKeys))
		}
		for i, lk := range m.leftKeys {
			col := &m.lcur.b.Cols[lk]
			if col.Kind == tuple.KindInt {
				m.curKey[i] = tuple.I(col.I[lphys])
			} else {
				m.curKey[i] = tuple.S(col.S[lphys])
			}
		}
	}
	m.haveKey = true
	m.buf.Reset()
	m.grp = nil

	// Skip right rows below the key, then take the equal run. Integer keys
	// find both run ends by scanning the key columns of each right batch;
	// other keys compare and copy row by row.
	for below := true; ; {
		ok, err := m.rcur.ensure()
		if err != nil {
			return err
		}
		if !ok {
			break // right exhausted
		}
		b, i, n := m.rcur.b, m.rcur.i, m.rcur.b.Len()
		if !m.intKeys {
			c := b.CompareRows(i, m.lcur.b, m.lcur.i, m.rightKeys, m.leftKeys, nil)
			if c > 0 || (c < 0 && !below) {
				break // past the run
			}
			if c == 0 {
				m.buf.AppendRow(b, b.RowIdx(i))
				below = false
			}
			m.rcur.i++
			continue
		}
		if below {
			if i = intKeyRun(b, i, m.rightKeys, m.curKeyInts, -1); i == n {
				m.rcur.i = n
				continue
			}
			below = false
		}
		end := intKeyRun(b, i, m.rightKeys, m.curKeyInts, 0)
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

// residualPass evaluates the residual for (current left row, group row gi).
func (m *MergeJoin) residualPass() (bool, error) {
	if m.hasVecGT {
		lphys := m.lcur.b.RowIdx(m.lcur.i)
		return m.grp.Cols[m.gtRight].I[m.gi] > m.lcur.b.Cols[m.gtLeft].I[lphys], nil
	}
	if m.residual == nil {
		return true, nil
	}
	if m.lscratch == nil {
		m.lscratch = make(tuple.Tuple, m.left.Schema().Len())
		m.rscratch = make(tuple.Tuple, m.right.Schema().Len())
	}
	return m.residual(m.lcur.b.RowInto(m.lscratch, m.lcur.i), m.grp.RowInto(m.rscratch, m.gi))
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
			if !m.haveKey || m.leftKeyCmpCur() != 0 {
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
				pass, err := m.residualPass()
				if err != nil {
					return nil, err
				}
				if pass {
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

// NestedLoopJoin joins by scanning the entire right input once per left
// tuple. The right input is materialized (columnar) at Open. This is the
// strawman the paper's Section 3 analysis rejects; it exists to be measured.
type NestedLoopJoin struct {
	left, right Operator
	pred        JoinPredicate
	schema      *tuple.Schema

	store *tuple.Batch // materialized right input
	lcur  batchCursor
	ri    int

	out                *tuple.Batch
	lscratch, rscratch tuple.Tuple

	stats OpStats
}

// NewNestedLoopJoin joins left and right with predicate pred (nil = cross
// product).
func NewNestedLoopJoin(left, right Operator, pred JoinPredicate) *NestedLoopJoin {
	return &NestedLoopJoin{
		left:   left,
		right:  right,
		pred:   pred,
		schema: left.Schema().Concat(right.Schema()),
	}
}

func (n *NestedLoopJoin) Schema() *tuple.Schema { return n.schema }

func (n *NestedLoopJoin) Open() error {
	n.stats.Reset()
	if err := n.left.Open(); err != nil {
		return err
	}
	if err := n.right.Open(); err != nil {
		return err
	}
	n.store = tuple.NewBatch(n.right.Schema())
	for {
		b, err := n.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n.store.Append(b)
	}
	n.lcur.reset(n.left)
	n.ri = 0
	return nil
}

func (n *NestedLoopJoin) Close() error {
	err1 := n.left.Close()
	err2 := n.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (n *NestedLoopJoin) nextBatch() (*tuple.Batch, error) {
	if n.out == nil {
		n.out = tuple.NewBatch(n.schema)
	}
	n.out.Reset()
	for n.out.Len() < tuple.BatchSize {
		ok, err := n.lcur.ensure()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for n.ri < n.store.Len() && n.out.Len() < tuple.BatchSize {
			pass := true
			if n.pred != nil {
				if n.lscratch == nil {
					n.lscratch = make(tuple.Tuple, n.left.Schema().Len())
					n.rscratch = make(tuple.Tuple, n.right.Schema().Len())
				}
				pass, err = n.pred(n.lcur.b.RowInto(n.lscratch, n.lcur.i), n.store.RowInto(n.rscratch, n.ri))
				if err != nil {
					return nil, err
				}
			}
			if pass {
				appendJoinRow(n.out, n.lcur.b, n.lcur.i, n.store, n.ri)
			}
			n.ri++
		}
		if n.ri >= n.store.Len() {
			n.lcur.i++
			n.ri = 0
		} else {
			break
		}
	}
	if n.out.Len() == 0 {
		return nil, io.EOF
	}
	return n.out, nil
}
