package exec

import (
	"fmt"
	"io"

	"setm/internal/tuple"
)

// HashJoin is an equi-join that builds an in-memory hash table on the
// right input and probes it with the left. The paper predates the
// ubiquity of hash joins in commercial optimizers; the cost-based planner
// picks it when the build side is small and the inputs are not already
// sorted on the join keys — SETM's support-filter join (R'_k ⋈ C_k) is the
// canonical case. Because each left row's matches are emitted
// contiguously in left order, the output preserves any ordering of the
// left input on left columns.
type HashJoin struct {
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	residual    JoinPredicate
	schema      *tuple.Schema

	buildHint int // expected build rows, pre-sizes store and table

	store *tuple.Batch // materialized right input

	// The build rows of one key are chained in store order: the index maps
	// a key to the first row of its chain, next[i] is the following row
	// with row i's key (-1 ends the chain). All-integer keys index through
	// an open-addressing table (key -> slot, heads by slot); a key with a
	// string column is serialized by appendKey into a map.
	intKeys bool // every key column is an integer on both sides
	ints    *groupTable
	heads   []int32
	strs    map[string]int32
	next    []int32

	lcur    batchCursor
	ri      int32 // current match of the current left row, -1 when exhausted
	probing bool  // ri is valid for the current left row

	key                []int64
	keyBuf             []byte
	out                *tuple.Batch
	lscratch, rscratch tuple.Tuple

	stats OpStats
}

// NewHashJoin joins left and right on equality of the key columns.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int, residual JoinPredicate) *HashJoin {
	return &HashJoin{
		left:      left,
		right:     right,
		leftKeys:  leftKeys,
		rightKeys: rightKeys,
		residual:  residual,
		schema:    left.Schema().Concat(right.Schema()),
	}
}

func (h *HashJoin) Schema() *tuple.Schema { return h.schema }

// SetBuildSizeHint pre-sizes the build-side store and hash table for n
// rows.
func (h *HashJoin) SetBuildSizeHint(n int) { h.buildHint = n }

// appendKey serializes the key columns of b's logical row i into buf.
func appendKey(buf []byte, b *tuple.Batch, i int, cols []int) ([]byte, error) {
	phys := b.RowIdx(i)
	for _, c := range cols {
		col := &b.Cols[c]
		switch col.Kind {
		case tuple.KindInt:
			v := col.I[phys]
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(v>>s))
			}
		case tuple.KindString:
			buf = append(buf, col.S[phys]...)
			buf = append(buf, 0)
		default:
			return nil, fmt.Errorf("exec: unhashable value kind %v", col.Kind)
		}
	}
	return buf, nil
}

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
	h.intKeys = intKeyColumns(h.left.Schema(), h.right.Schema(), h.leftKeys, h.rightKeys)
	h.next = make([]int32, h.store.Len())
	h.key = make([]int64, len(h.leftKeys))
	if err := h.buildIndex(); err != nil {
		return err
	}
	h.lcur.reset(h.left)
	h.probing = false
	return nil
}

// buildIndex indexes the build rows. Rows are visited last to first and
// pushed onto the front of their key's chain, so every chain lists its
// rows in store order.
func (h *HashJoin) buildIndex() error {
	rows := h.store.Len()
	if h.intKeys {
		t := newGroupTable(len(h.rightKeys), 0)
		var heads []int32
		key := make([]int64, len(h.rightKeys))
		for i := rows - 1; i >= 0; i-- {
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
		h.ints, h.heads = t, heads
		return nil
	}
	t := make(map[string]int32, h.buildHint)
	var buf []byte
	for i := rows - 1; i >= 0; i-- {
		var err error
		if buf, err = appendKey(buf[:0], h.store, i, h.rightKeys); err != nil {
			return err
		}
		h.next[i] = -1
		if head, ok := t[string(buf)]; ok {
			h.next[i] = head
		}
		t[string(buf)] = int32(i)
	}
	h.strs = t
	return nil
}

// firstMatch returns the first build row matching the current left row's
// key, or -1.
func (h *HashJoin) firstMatch() (int32, error) {
	if h.intKeys {
		phys := h.lcur.b.RowIdx(h.lcur.i)
		for k, c := range h.leftKeys {
			h.key[k] = h.lcur.b.Cols[c].I[phys]
		}
		if s, _ := h.ints.find(h.key, hashKey(h.key)); s >= 0 {
			return h.heads[s], nil
		}
		return -1, nil
	}
	var err error
	if h.keyBuf, err = appendKey(h.keyBuf[:0], h.lcur.b, h.lcur.i, h.leftKeys); err != nil {
		return -1, err
	}
	if head, ok := h.strs[string(h.keyBuf)]; ok {
		return head, nil
	}
	return -1, nil
}

func (h *HashJoin) Close() error {
	err1 := h.left.Close()
	err2 := h.right.Close()
	h.ints, h.heads, h.strs, h.next = nil, nil, nil, nil
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
			if h.ri, err = h.firstMatch(); err != nil {
				return nil, err
			}
			h.probing = true
		}
		for h.ri >= 0 && h.out.Len() < tuple.BatchSize {
			ri := int(h.ri)
			pass := true
			if h.residual != nil {
				if h.lscratch == nil {
					h.lscratch = make(tuple.Tuple, h.left.Schema().Len())
					h.rscratch = make(tuple.Tuple, h.right.Schema().Len())
				}
				pass, err = h.residual(h.lcur.b.RowInto(h.lscratch, h.lcur.i), h.store.RowInto(h.rscratch, ri))
				if err != nil {
					return nil, err
				}
			}
			if pass {
				appendJoinRow(h.out, h.lcur.b, h.lcur.i, h.store, ri)
			}
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
