package exec

import (
	"io"

	"setm/internal/tuple"
)

// HashJoin is an equi-join that builds an in-memory hash table on the
// right input and probes it with the left. The paper predates the
// ubiquity of hash joins in commercial optimizers; the planner picks it
// when the inputs are not both sorted on the join keys and the build side
// fits the memory budget — SETM's support-filter join (R'_k ⋈ C_k) is the
// canonical case. Because each left row's matches are emitted
// contiguously in left order, the output preserves any ordering of the
// left input on left columns.
type HashJoin struct {
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	schema      *tuple.Schema

	buildHint int // expected build rows, pre-sizes the store

	store *tuple.Batch // materialized right input

	// The build rows of one key are chained in store order: an
	// open-addressing table maps a key to a slot, heads[slot] is the first
	// row of its chain, next[i] is the following row with row i's key (-1
	// ends the chain).
	table *groupTable
	heads []int32
	next  []int32

	lcur    batchCursor
	ri      int32 // current match of the current left row, -1 when exhausted
	probing bool  // ri is valid for the current left row

	key []int64
	out *tuple.Batch

	stats OpStats
}

// NewHashJoin joins left and right on equality of the key columns.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int) *HashJoin {
	return &HashJoin{
		left:      left,
		right:     right,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		schema:    left.Schema().Concat(right.Schema()),
	}
}

func (h *HashJoin) Schema() *tuple.Schema { return h.schema }

// SetBuildSizeHint pre-sizes the build-side store for n rows.
func (h *HashJoin) SetBuildSizeHint(n int) { h.buildHint = n }

func (h *HashJoin) Open() error {
	h.stats.Reset()
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	h.store = tuple.NewBatch(h.right.Schema())
	if h.buildHint > 0 {
		h.store.Grow(h.buildHint)
	}
	for {
		b, err := h.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h.store.Append(b)
	}
	h.next = make([]int32, h.store.Len())
	h.key = make([]int64, len(h.leftKeys))
	h.buildIndex()
	h.lcur.reset(h.left)
	h.probing = false
	return nil
}

// buildIndex indexes the build rows. Rows are visited last to first and
// pushed onto the front of their key's chain, so every chain lists its
// rows in store order.
func (h *HashJoin) buildIndex() {
	t := newGroupTable(len(h.rightKeys), 0)
	var heads []int32
	key := make([]int64, len(h.rightKeys))
	for i := h.store.Len() - 1; i >= 0; i-- {
		for k, c := range h.rightKeys {
			key[k] = h.store.Cols[c].I[i]
		}
		s := t.lookup(key, hashKey(key))
		if s == len(heads) {
			heads = append(heads, -1)
		}
		h.next[i] = heads[s]
		heads[s] = int32(i)
	}
	h.table, h.heads = t, heads
}

// firstMatch returns the first build row matching the current left row's
// key, or -1.
func (h *HashJoin) firstMatch() int32 {
	phys := h.lcur.b.RowIdx(h.lcur.i)
	for k, c := range h.leftKeys {
		h.key[k] = h.lcur.b.Cols[c].I[phys]
	}
	if s, _ := h.table.find(h.key, hashKey(h.key)); s >= 0 {
		return h.heads[s]
	}
	return -1
}

func (h *HashJoin) Close() error {
	err1 := h.left.Close()
	err2 := h.right.Close()
	h.table, h.heads, h.next = nil, nil, nil
	h.store = nil
	if err1 != nil {
		return err1
	}
	return err2
}

func (h *HashJoin) nextBatch() (*tuple.Batch, error) {
	if h.out == nil {
		h.out = tuple.NewBatch(h.schema)
	}
	h.out.Reset()
	for h.out.Len() < tuple.BatchSize {
		ok, err := h.lcur.ensure()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !h.probing {
			h.ri = h.firstMatch()
			h.probing = true
		}
		for h.ri >= 0 && h.out.Len() < tuple.BatchSize {
			ri := int(h.ri)
			appendJoinRow(h.out, h.lcur.b, h.lcur.i, h.store, ri)
			h.ri = h.next[ri]
		}
		if h.ri < 0 {
			h.lcur.i++
			h.probing = false
		} else {
			break
		}
	}
	if h.out.Len() == 0 {
		return nil, io.EOF
	}
	return h.out, nil
}
