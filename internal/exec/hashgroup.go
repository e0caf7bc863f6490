// HashGroup: aggregation of unsorted input with sorted output. Where
// SortGroup needs its input pre-sorted on the group columns (and the
// planner pays a full materializing sort for it), HashGroup aggregates
// unsorted input and emits the groups ascending on the group columns —
// the output of sort+SortGroup, same aggregate values. A COUNT over group
// columns whose bounds pack into one word counts packed keys, on a
// direct-address table or by a radix sort and a run count (the native
// miner's two count kernels, shared through xsort); both emit keys in
// order. Any other shape aggregates in a hash table on the group columns
// and sorts the distinct groups for emission.
package exec

import (
	"fmt"
	"io"
	"slices"

	"setm/internal/tuple"
	"setm/internal/xsort"
)

// groupTable is an open-addressing hash table from a group key to a slot
// of aggregate state. Keys and states are stored columnar;
// buckets hold slot indexes.
type groupTable struct {
	nkeys int
	naggs int

	keys   [][]int64 // nkeys slices, slot-indexed
	counts []int64
	sums   [][]int64 // naggs slices
	mins   [][]int64
	maxs   [][]int64

	buckets []int32 // power of two; -1 = empty
	mask    uint64
}

func newGroupTable(nkeys, naggs int) *groupTable {
	t := &groupTable{nkeys: nkeys, naggs: naggs}
	t.keys = make([][]int64, nkeys)
	t.sums = make([][]int64, naggs)
	t.mins = make([][]int64, naggs)
	t.maxs = make([][]int64, naggs)
	t.rehash(1 << 10)
	return t
}

func (t *groupTable) slots() int { return len(t.counts) }

func (t *groupTable) rehash(n int) {
	t.buckets = make([]int32, n)
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.mask = uint64(n - 1)
	for s := 0; s < t.slots(); s++ {
		h := t.hashSlot(s) & t.mask
		for t.buckets[h] != -1 {
			h = (h + 1) & t.mask
		}
		t.buckets[h] = int32(s)
	}
}

func (t *groupTable) hashSlot(s int) uint64 {
	var h uint64 = 1469598103934665603
	for k := 0; k < t.nkeys; k++ {
		h ^= uint64(t.keys[k][s])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func hashKey(key []int64) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range key {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// find returns the slot holding key, whose hashKey is hv, or -1 and the
// empty bucket where the key would go.
func (t *groupTable) find(key []int64, hv uint64) (slot int, bucket uint64) {
	h := hv & t.mask
	for {
		s := t.buckets[h]
		if s == -1 {
			return -1, h
		}
		match := true
		for k := 0; k < t.nkeys; k++ {
			if t.keys[k][s] != key[k] {
				match = false
				break
			}
		}
		if match {
			return int(s), h
		}
		h = (h + 1) & t.mask
	}
}

// lookup finds or creates the slot for key, whose hashKey is hv.
func (t *groupTable) lookup(key []int64, hv uint64) int {
	s, h := t.find(key, hv)
	if s >= 0 {
		return s
	}
	s = t.slots()
	for k := 0; k < t.nkeys; k++ {
		t.keys[k] = append(t.keys[k], key[k])
	}
	t.counts = append(t.counts, 0)
	for a := 0; a < t.naggs; a++ {
		t.sums[a] = append(t.sums[a], 0)
		t.mins[a] = append(t.mins[a], 0)
		t.maxs[a] = append(t.maxs[a], 0)
	}
	t.buckets[h] = int32(s)
	if uint64(t.slots())*4 > uint64(len(t.buckets))*3 {
		t.rehash(len(t.buckets) * 2)
	}
	return s
}

// HashGroup aggregates its child on its group columns, emitting groups
// ascending on the group columns — the order a sort+SortGroup plan
// produces. Aggregates are COUNT/SUM/MIN/MAX.
type HashGroup struct {
	child     Operator
	groupCols []int
	aggs      []AggSpec
	schema    *tuple.Schema

	ranges   []tuple.Range // bounds of the group columns (SetKeyRanges)
	sizeHint int64         // expected input rows (SetSizeHint)
	kernel   string        // the count kernel the last Open ran

	// The generic path: the hash table and its emission order.
	table *groupTable
	perm  []int32
	// The packed path: the key layout and the counted groups, ascending.
	pack   keyPack
	counts xsort.Counts

	pos int
	out *tuple.Batch

	stats OpStats
}

// NewHashGroup groups child's rows on groupCols, computing aggs.
func NewHashGroup(child Operator, groupCols []int, aggs []AggSpec) *HashGroup {
	in := child.Schema()
	cols := make([]tuple.Column, 0, len(groupCols)+len(aggs))
	for _, gc := range groupCols {
		cols = append(cols, in.Cols[gc])
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = "agg"
		}
		cols = append(cols, tuple.Column{Name: name, Kind: tuple.KindInt})
	}
	return &HashGroup{
		child:     child,
		groupCols: groupCols,
		aggs:      aggs,
		schema:    tuple.NewSchema(cols...),
	}
}

func (g *HashGroup) Schema() *tuple.Schema { return g.schema }

// SetKeyRanges gives bounds of the group columns, in groupCols order. With
// them a COUNT-only aggregate whose group key packs into 64 bits counts on
// packed keys (KernelFor).
func (g *HashGroup) SetKeyRanges(ranges []tuple.Range) { g.ranges = ranges }

// SetSizeHint gives the expected input rows. The count kernel is picked
// for them (KernelFor): the table kernel counts straight off the input's
// batches, and the sort kernel's key buffer is sized for them.
func (g *HashGroup) SetSizeHint(n int64) { g.sizeHint = n }

// packed returns the packed key layout, or false when the group runs on
// the generic hash table: no bounds, a key wider than a word, or an
// aggregate other than COUNT.
func (g *HashGroup) packed() (keyPack, bool) {
	if len(g.ranges) != len(g.groupCols) || len(g.groupCols) == 0 {
		return keyPack{}, false
	}
	for _, a := range g.aggs {
		if a.Kind != AggCount {
			return keyPack{}, false
		}
	}
	return newKeyPack(g.ranges)
}

// KernelFor names the count kernel Open runs over rows input rows:
// CountTable or CountSort on packed keys, else CountHash.
func (g *HashGroup) KernelFor(rows int64) string {
	p, ok := g.packed()
	if !ok {
		return CountHash
	}
	return countKernel(p, rows)
}

// Kernel names the count kernel the last Open ran ("" before one).
func (g *HashGroup) Kernel() string { return g.kernel }

// build drains the (open) child into t.
func (g *HashGroup) build(t *groupTable) error {
	key := make([]int64, len(g.groupCols))
	for {
		b, err := g.child.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			phys := b.RowIdx(i)
			for k, gc := range g.groupCols {
				key[k] = b.Cols[gc].I[phys]
			}
			s := t.lookup(key, hashKey(key))
			first := t.counts[s] == 0
			t.counts[s]++
			for ai, a := range g.aggs {
				switch a.Kind {
				case AggCount:
					// count handled globally
				case AggSum, AggMin, AggMax:
					v := b.Cols[a.Col].I[phys]
					if first {
						t.sums[ai][s], t.mins[ai][s], t.maxs[ai][s] = v, v, v
					} else {
						t.sums[ai][s] += v
						if v < t.mins[ai][s] {
							t.mins[ai][s] = v
						}
						if v > t.maxs[ai][s] {
							t.maxs[ai][s] = v
						}
					}
				}
			}
		}
	}
}

// buildPacked drains the (open) child and counts its packed keys with the
// kernel picked for the size hint: on the table, a batch at a time, or
// gathered, sorted and run-counted.
func (g *HashGroup) buildPacked() error {
	g.kernel = countKernel(g.pack, g.sizeHint)
	var tab []uint32
	var keys, tmp []uint64
	if g.kernel == CountTable {
		tab = make([]uint32, g.pack.space())
	} else if g.sizeHint > 0 && g.sizeHint < 1<<31 {
		keys = slices.Grow(keys, int(g.sizeHint))
	}
	for {
		b, err := g.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n := len(keys)
		keys = slices.Grow(keys, b.Len())[:n+b.Len()]
		if !g.pack.pack(b, g.groupCols, keys[n:], nil) {
			return fmt.Errorf("exec: a group key lies outside the bounds planned for it")
		}
		if tab != nil {
			for _, k := range keys {
				tab[k]++
			}
			keys = keys[:0]
		}
	}
	if tab != nil {
		g.counts = xsort.EmitCountTable(tab, 1, xsort.Counts{})
		return nil
	}
	var skips int64
	g.counts = xsort.SortCountKeys(keys, &tmp, 1, xsort.Counts{}, &skips)
	return nil
}

func (g *HashGroup) Open() error {
	g.stats.Reset()
	g.table, g.perm, g.pos, g.counts = nil, nil, 0, xsort.Counts{}
	if g.out == nil {
		g.out = tuple.NewBatch(g.schema)
	}
	// The child is drained here, so it is closed here — also when its Open
	// fails part-way.
	var t *groupTable
	var packed bool
	g.pack, packed = g.packed()
	err := g.child.Open()
	if err == nil && packed {
		err = g.buildPacked()
	} else if err == nil {
		g.kernel = CountHash
		t = newGroupTable(len(g.groupCols), len(g.aggs))
		err = g.build(t)
	}
	if cerr := g.child.Close(); err == nil {
		err = cerr
	}
	if err != nil || packed {
		return err
	}
	// Emission order: groups ascending on the group columns, which is what
	// the equivalent sort+SortGroup plan emits.
	g.table = t
	g.perm = make([]int32, t.slots())
	for i := range g.perm {
		g.perm[i] = int32(i)
	}
	slices.SortFunc(g.perm, func(a, b int32) int {
		for k := 0; k < t.nkeys; k++ {
			av, bv := t.keys[k][a], t.keys[k][b]
			if av != bv {
				if av < bv {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	return nil
}

// nextPacked emits the next run of counted groups, unpacking each group
// column from the keys.
func (g *HashGroup) nextPacked() (*tuple.Batch, error) {
	end := min(g.pos+tuple.BatchSize, len(g.counts.Keys))
	if g.pos >= end {
		return nil, io.EOF
	}
	g.out.Reset()
	keys := g.counts.Keys[g.pos:end]
	for i := range g.groupCols {
		g.out.Cols[i].I = g.pack.unpack(keys, i, g.out.Cols[i].I)
	}
	for ai := range g.aggs {
		c := &g.out.Cols[len(g.groupCols)+ai]
		c.I = append(c.I, g.counts.Counts[g.pos:end]...)
	}
	g.out.BumpRows(end - g.pos)
	g.pos = end
	return g.out, nil
}

func (g *HashGroup) nextBatch() (*tuple.Batch, error) {
	if g.table == nil {
		return g.nextPacked()
	}
	if g.pos >= len(g.perm) {
		return nil, io.EOF
	}
	t := g.table
	g.out.Reset()
	end := g.pos + tuple.BatchSize
	if end > len(g.perm) {
		end = len(g.perm)
	}
	g.out.Grow(end - g.pos)
	for ; g.pos < end; g.pos++ {
		s := int(g.perm[g.pos])
		for k := 0; k < t.nkeys; k++ {
			g.out.Cols[k].I = append(g.out.Cols[k].I, t.keys[k][s])
		}
		base := t.nkeys
		for ai, a := range g.aggs {
			var v int64
			switch a.Kind {
			case AggCount:
				v = t.counts[s]
			case AggSum:
				v = t.sums[ai][s]
			case AggMin:
				v = t.mins[ai][s]
			case AggMax:
				v = t.maxs[ai][s]
			}
			g.out.Cols[base+ai].I = append(g.out.Cols[base+ai].I, v)
		}
		g.out.BumpRow()
	}
	if g.out.Len() == 0 {
		return nil, io.EOF
	}
	return g.out, nil
}

func (g *HashGroup) Close() error {
	g.table, g.perm, g.counts = nil, nil, xsort.Counts{}
	return nil
}
