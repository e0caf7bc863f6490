package exec

import (
	"fmt"
	"io"
	"sync"

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

	buildWorkers int // >1: partitioned parallel build
	buildHint    int // expected build rows, pre-sizes store and table

	store *tuple.Batch // materialized right input

	// The build rows of one key are chained in store order: index[p] maps
	// the keys of partition p to the first row of their chain, next[i] is
	// the following row with row i's key (-1 ends the chain).
	intKeys bool // every key column is an integer on both sides
	index   []keyIndex
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

// keyIndex maps the keys of one build partition to the first build row of
// each. All-integer keys use an open-addressing table (key -> slot, heads
// by slot); a key with a string column is serialized by appendKey into a
// map.
type keyIndex struct {
	ints  *groupTable
	heads []int32
	strs  map[string]int32
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

// SetBuildWorkers partitions the hash-table build over w goroutines: the
// build input is materialized once (serially, keeping row order), then
// each worker builds the table partition owning hash(key) mod w. Match
// chains are identical to a serial build — every key lives in exactly one
// partition and its chain is in store order — so probe output is unchanged
// for any w.
func (h *HashJoin) SetBuildWorkers(w int) { h.buildWorkers = w }

// keyPartition maps a serialized key to a table partition.
func keyPartition(key []byte, parts int) int {
	var fnv uint64 = 1469598103934665603
	for _, c := range key {
		fnv ^= uint64(c)
		fnv *= 1099511628211
	}
	return int(fnv % uint64(parts))
}

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
	parts := max(h.buildWorkers, 1)
	h.next = make([]int32, h.store.Len())
	h.index = make([]keyIndex, parts)
	h.key = make([]int64, len(h.leftKeys))
	if parts == 1 {
		if err := h.buildPartition(0, 1); err != nil {
			return err
		}
	} else {
		errs := make([]error, parts)
		var wg sync.WaitGroup
		wg.Add(parts)
		for w := 0; w < parts; w++ {
			go func(w int) {
				defer wg.Done()
				errs[w] = h.buildPartition(w, parts)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	h.lcur.reset(h.left)
	h.probing = false
	return nil
}

// buildPartition indexes the build rows whose key hashes to partition w of
// parts. Rows are visited last to first and pushed onto the front of their
// key's chain, so every chain lists its rows in store order whatever the
// partitioning — probe output does not depend on the worker count. Workers
// write disjoint elements of h.next.
func (h *HashJoin) buildPartition(w, parts int) error {
	rows := h.store.Len()
	if h.intKeys {
		t := newGroupTable(len(h.rightKeys), 0)
		var heads []int32
		key := make([]int64, len(h.rightKeys))
		for i := rows - 1; i >= 0; i-- {
			for k, c := range h.rightKeys {
				key[k] = h.store.Cols[c].I[i]
			}
			hv := hashKey(key)
			if parts > 1 && intKeyPartition(hv, parts) != w {
				continue
			}
			s := t.lookup(key, hv)
			if s == len(heads) {
				heads = append(heads, -1)
			}
			h.next[i] = heads[s]
			heads[s] = int32(i)
		}
		h.index[w] = keyIndex{ints: t, heads: heads}
		return nil
	}
	t := make(map[string]int32, h.buildHint/parts)
	var buf []byte
	for i := rows - 1; i >= 0; i-- {
		var err error
		if buf, err = appendKey(buf[:0], h.store, i, h.rightKeys); err != nil {
			return err
		}
		if parts > 1 && keyPartition(buf, parts) != w {
			continue
		}
		h.next[i] = -1
		if head, ok := t[string(buf)]; ok {
			h.next[i] = head
		}
		t[string(buf)] = int32(i)
	}
	h.index[w] = keyIndex{strs: t}
	return nil
}

// intKeyPartition maps an integer key's hash to a table partition. It uses
// the hash's high half; the tables index by the low bits.
func intKeyPartition(hv uint64, parts int) int { return int(hv>>32) % parts }

// firstMatch returns the first build row matching the current left row's
// key, or -1.
func (h *HashJoin) firstMatch() (int32, error) {
	if h.intKeys {
		phys := h.lcur.b.RowIdx(h.lcur.i)
		for k, c := range h.leftKeys {
			h.key[k] = h.lcur.b.Cols[c].I[phys]
		}
		hv, p := hashKey(h.key), 0
		if len(h.index) > 1 {
			p = intKeyPartition(hv, len(h.index))
		}
		if s, _ := h.index[p].ints.find(h.key, hv); s >= 0 {
			return h.index[p].heads[s], nil
		}
		return -1, nil
	}
	var err error
	if h.keyBuf, err = appendKey(h.keyBuf[:0], h.lcur.b, h.lcur.i, h.leftKeys); err != nil {
		return -1, err
	}
	p := 0
	if len(h.index) > 1 {
		p = keyPartition(h.keyBuf, len(h.index))
	}
	if head, ok := h.index[p].strs[string(h.keyBuf)]; ok {
		return head, nil
	}
	return -1, nil
}

func (h *HashJoin) Close() error {
	err1 := h.left.Close()
	err2 := h.right.Close()
	h.index, h.next = nil, nil
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
