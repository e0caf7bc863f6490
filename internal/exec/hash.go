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
//
// Build keys whose bounds pack into one word are probed on packed keys: a
// range check, then a head table addressed by the key when the key space
// is small, else an open-addressing table of keys (KernelFor). When the
// build keys are unique and the plan reads no build column (SetProbeOnly),
// the join is a semi-join: a probe batch passes through under a selection
// vector of its matching rows, and no row is copied. Wider keys probe the
// generic hash table on the key columns.
type HashJoin struct {
	left, right Operator
	leftKeys    []int
	rightKeys   []int
	schema      *tuple.Schema

	buildHint int  // expected build rows, pre-sizes the store
	probeOnly bool // the plan reads no build column (SetProbeOnly)
	kernel    string

	store *tuple.Batch // materialized right input

	// The build rows of one key are chained in store order: the key's
	// entry of the index holds the first row of its chain, next[i] the
	// following row with row i's key (-1 ends the chain). The index is the
	// packed head table (direct), the packed key table (keys, heads), or
	// the generic table (table, heads).
	pack  keyPack
	keys  []uint64 // ProbeHash: slot -> packed key
	mask  uint64
	table *groupTable
	heads []int32
	next  []int32

	// The current probe batch: its rows' packed keys, range misses and
	// first matches, and the position in it.
	lb    *tuple.Batch
	li    int
	ri    int32 // current match of row li, -1 when exhausted
	pk    []uint64
	miss  []bool
	match []int32
	key   []int64

	out   *tuple.Batch
	sel   []int32
	cols  []tuple.ColVec // a semi-join's output columns
	zeros []int64        // the build columns of a semi-join's output
	view  tuple.Batch

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

// SetProbeOnly declares that the plan reads no build column of the join's
// output. A join whose build keys turn out unique then emits each probe
// batch under a selection vector of its matching rows; the build columns
// of such a batch hold zeros.
func (h *HashJoin) SetProbeOnly() { h.probeOnly = true }

// KernelFor names the probe kernel for a build of buildRows rows whose key
// columns have the given bounds: ProbeDirect or ProbeHash on a packed key,
// else ProbeGeneric. After SetProbeOnly a packed kernel becomes ProbeSemi
// at run time when the build keys are unique, and KernelFor says so.
func (h *HashJoin) KernelFor(ranges []tuple.Range, buildRows int64) string {
	p, ok := newKeyPack(ranges)
	if !ok {
		return ProbeGeneric
	}
	if h.probeOnly {
		return probeKernel(p, buildRows) + ", semi if build keys are unique"
	}
	return probeKernel(p, buildRows)
}

// Kernel names the probe kernel the last Open chose ("" before one).
func (h *HashJoin) Kernel() string { return h.kernel }

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
	h.lb, h.li, h.ri = nil, 0, -1
	return nil
}

// buildIndex indexes the build rows and picks the probe kernel. Rows are
// visited last to first and pushed onto the front of their key's chain,
// so every chain lists its rows in store order.
func (h *HashJoin) buildIndex() {
	n := h.store.Len()
	var ok bool
	h.pack, ok = newKeyPack(columnRanges(h.store, h.rightKeys, n))
	h.table, h.keys = nil, nil
	if !ok {
		h.kernel = ProbeGeneric
		h.buildGeneric()
		return
	}
	h.kernel = probeKernel(h.pack, int64(n))
	keys := make([]uint64, n)
	h.pack.pack(h.store, h.rightKeys, keys, nil)
	size := h.pack.space()
	if h.kernel == ProbeHash {
		size = 1 << 4
		for size < 2*uint64(n) {
			size <<= 1
		}
		h.keys, h.mask = make([]uint64, size), size-1
	}
	h.heads = make([]int32, size)
	for i := range h.heads {
		h.heads[i] = -1
	}
	unique := true
	for i := n - 1; i >= 0; i-- {
		s := keys[i]
		if h.keys != nil {
			s = h.slot(keys[i])
			h.keys[s] = keys[i]
		}
		unique = unique && h.heads[s] < 0
		h.next[i] = h.heads[s]
		h.heads[s] = int32(i)
	}
	if unique && h.probeOnly {
		h.kernel = ProbeSemi
	}
}

// slot returns the slot of the packed key table holding k, or the empty
// slot where k would go.
func (h *HashJoin) slot(k uint64) uint64 {
	x := k * 0x9e3779b97f4a7c15
	s := (x ^ x>>29) & h.mask
	for h.heads[s] >= 0 && h.keys[s] != k {
		s = (s + 1) & h.mask
	}
	return s
}

// buildGeneric indexes the build rows on the generic hash table.
func (h *HashJoin) buildGeneric() {
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

// probe sets h.match to the first matching build row (or -1) of every
// logical row of b.
func (h *HashJoin) probe(b *tuple.Batch) {
	n := b.Len()
	h.match = growInt32(h.match, n)
	if h.table != nil {
		for r := range n {
			phys := b.RowIdx(r)
			for k, c := range h.leftKeys {
				h.key[k] = b.Cols[c].I[phys]
			}
			h.match[r] = -1
			if s, _ := h.table.find(h.key, hashKey(h.key)); s >= 0 {
				h.match[r] = h.heads[s]
			}
		}
		return
	}
	if cap(h.pk) < n {
		h.pk, h.miss = make([]uint64, n), make([]bool, n)
	}
	pk, miss := h.pk[:n], h.miss[:n]
	clear(miss)
	h.pack.pack(b, h.leftKeys, pk, miss)
	for r, k := range pk {
		switch {
		case miss[r]:
			h.match[r] = -1
		case h.keys == nil:
			h.match[r] = h.heads[k]
		default:
			h.match[r] = h.heads[h.slot(k)]
		}
	}
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func (h *HashJoin) Close() error {
	err1 := h.left.Close()
	err2 := h.right.Close()
	h.table, h.heads, h.next, h.keys = nil, nil, nil, nil
	h.store, h.lb = nil, nil
	if err1 != nil {
		return err1
	}
	return err2
}

// nextSemi returns the next probe batch with a match, under a selection
// vector of its matching rows.
func (h *HashJoin) nextSemi() (*tuple.Batch, error) {
	for {
		b, err := h.left.NextBatch()
		if err != nil {
			return nil, err
		}
		h.probe(b)
		h.sel = h.sel[:0]
		for r, m := range h.match {
			if m >= 0 {
				h.sel = append(h.sel, int32(b.RowIdx(r)))
			}
		}
		if len(h.sel) == 0 {
			continue
		}
		if np := b.NumPhysical(); len(h.zeros) < np {
			h.zeros = make([]int64, max(np, tuple.BatchSize))
		}
		if h.cols == nil {
			h.cols = make([]tuple.ColVec, len(h.schema.Cols))
		}
		copy(h.cols, b.Cols)
		for c := len(b.Cols); c < len(h.cols); c++ {
			h.cols[c].I = h.zeros[:b.NumPhysical()]
		}
		v := b.View(&h.view, h.schema, h.cols)
		v.SetSel(h.sel)
		return v, nil
	}
}

func (h *HashJoin) nextBatch() (*tuple.Batch, error) {
	if h.kernel == ProbeSemi {
		return h.nextSemi()
	}
	if h.out == nil {
		h.out = tuple.NewBatch(h.schema)
	}
	h.out.Reset()
	for h.out.Len() < tuple.BatchSize {
		if h.lb == nil || h.li >= h.lb.Len() {
			b, err := h.left.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			h.lb, h.li, h.ri = b, 0, -1
			if h.probe(b); b.Len() == 0 {
				continue
			}
			h.ri = h.match[0]
		}
		for h.ri >= 0 && h.out.Len() < tuple.BatchSize {
			ri := int(h.ri)
			appendJoinRow(h.out, h.lb, h.li, h.store, ri)
			h.ri = h.next[ri]
		}
		if h.ri >= 0 {
			break
		}
		if h.li++; h.li < h.lb.Len() {
			h.ri = h.match[h.li]
		}
	}
	if h.out.Len() == 0 {
		return nil, io.EOF
	}
	return h.out, nil
}
