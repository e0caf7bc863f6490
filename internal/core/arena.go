package core

import (
	"math/bits"
	"slices"
	"sync"
)

// mineArena holds the scratch buffers one mining run threads through
// its iterations: the radix ping-pong buffers, the count step's tables
// (or, on the sort kernel, its key-column clone), the filtered R_k, the
// packed C_k, and the per-worker slots a pass's chunks live in. Buffers
// grow to the high-water mark of the run and are reused verbatim
// afterwards, so steady-state iterations allocate (almost) nothing.
type mineArena struct {
	rkBuf   []prow   // R_k, the filter output (a fanned-out pass gathers wKeep here)
	rowsTmp []prow   // radix scratch for (tid, key) sorts
	keys    []uint64 // key-column clone sorted by the count step's sort kernel
	keysTmp []uint64 // radix scratch for serial key sorts
	kcKeys  []uint64 // the streaming key counter's bounded key buffer

	rankDir []rankWord // C_k's membership bitmap and rank directory (keyIndex)

	// Per-worker slots, one per chunk of a resident pass. Slot 0 is the
	// serial pass's: a one-chunk pass extends into wRows[0] and counts on
	// wTab[0], and so does the streaming path (its appender's resident
	// portion, its one key counter's table and scratch).
	wRows   [][]prow   // R'_k, chunk by chunk: extended here, counted and filtered from here
	wKeep   [][]prow   // a fanned-out pass's filter output per chunk, gathered into rkBuf
	wCounts []pkCounts // per-chunk count runs of the sort kernel
	wTmp    [][]uint64 // per-chunk radix scratch
	wTab    [][]uint32 // per-chunk count tables
	wSkips  []int64    // per-chunk sort-skip tallies
}

// arenaPool recycles arenas across mining runs, so a steady stream of
// mines reaches its buffer high-water marks once and then allocates
// (almost) nothing per run.
var arenaPool = sync.Pool{New: func() any { return new(mineArena) }}

func newMineArena() *mineArena { return arenaPool.Get().(*mineArena) }

// release returns the arena to the pool. Callers must drop every
// reference into its buffers first; the mining result never aliases
// arena memory (decodePatterns copies), so steppers release at pipeline
// end.
func (a *mineArena) release() { arenaPool.Put(a) }

// workerSlots makes the per-worker slot tables at least n wide.
func (a *mineArena) workerSlots(n int) {
	if d := n - len(a.wRows); d > 0 {
		a.wRows = append(a.wRows, make([][]prow, d)...)
		a.wKeep = append(a.wKeep, make([][]prow, d)...)
		a.wCounts = append(a.wCounts, make([]pkCounts, d)...)
		a.wTmp = append(a.wTmp, make([][]uint64, d)...)
		a.wTab = append(a.wTab, make([][]uint32, d)...)
		a.wSkips = append(a.wSkips, make([]int64, d)...)
	}
}

// growProws returns buf resized to n rows, reallocating only when the
// capacity is exceeded.
func growProws(buf []prow, n int) []prow {
	if cap(buf) < n {
		return make([]prow, n)
	}
	return buf[:n]
}

// growU64 returns buf resized to n words, reallocating only when the
// capacity is exceeded.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// growU32 returns buf resized to n cells, reallocating only when the
// capacity is exceeded. The contents are unspecified.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// maxCountTableBits bounds the key space the count step addresses
// directly: 2^24 uint32 cells is a 64 MiB table, which the kernel rule
// (table bytes <= 16 B per key counted) admits only from 4M keys up. The
// space is 2^(k*bits) points while k <= 2 and |C_{k-1}|*2^bits from
// k = 3 (keySpace), so on a catalogue of 2^10 items every pass with
// fewer than 2^14 frequent prefixes is under it.
// The rule alone keeps the table's memory below the sort's; the cap is
// where its speed stops being safe. Past the last-level cache every
// increment of a scattered key column is a cache and TLB miss, while the
// radix sort streams. BenchmarkCountKernel, uniform random keys (the
// table's worst case), 2.1 GHz Xeon, ms per count step, table vs sort:
// 2^10 cells x 5M keys 8.8 vs 102; 2^20 x 5M 24 vs 128; 2^24 x 5M 122 vs
// 132, and at the fewest keys the rule admits there, 4M, 102 vs 101 — a
// tie, where one more bit would need an 8M-key column to tie and a
// 128 MiB table. (Between 2^21 and 2^23 cells a uniform random column of
// exactly a quarter as many keys as cells loses up to 1.4x; from one key
// per cell the table wins 2.2-2.8x. Real R'_k columns are skewed toward
// the frequent items, which only helps the table.)
const maxCountTableBits = 24

// maxFilterBitmapBits bounds the key space a keyIndex maps densely:
// 2^22 points is a 1 MiB directory (16 B per 64 points), cleared and
// refilled per iteration from the arena. Wider key spaces fall back to
// binary search over C_k.
const maxFilterBitmapBits = 22

// keyIndex is C_k seen from its key space: membership for pass k's
// filter, and a key's rank in C_k — the prefix code pass k+1 extends
// with. Over a narrow space it is a bitmap whose words carry the count
// of keys below them (a rank directory: one look-up and one popcount);
// over a wide one, binary search in the ascending keys. Built once per
// pass, it is read-only from then on, so a fanned-out extension's chunks
// share it.
type keyIndex struct {
	keys []uint64   // C_k, ascending
	dir  []rankWord // nil past maxFilterBitmapBits
}

// rankWord is 64 points of a key space: a bit per point that is a C_k
// key, and how many C_k keys lie below the first.
type rankWord struct {
	bits  uint64
	below uint64
}

// buildKeyIndex indexes the C_k keys over a key space of space points
// in the arena's directory buffer.
func buildKeyIndex(ckKeys []uint64, space uint64, ar *mineArena) keyIndex {
	x := keyIndex{keys: ckKeys}
	if space > 1<<maxFilterBitmapBits {
		return x
	}
	words := int((space + 63) / 64)
	if cap(ar.rankDir) < words {
		ar.rankDir = make([]rankWord, words)
	}
	x.dir = ar.rankDir[:words]
	clear(x.dir)
	for _, k := range ckKeys {
		x.dir[k>>6].bits |= 1 << (k & 63)
	}
	var n uint64
	for w := range x.dir {
		x.dir[w].below = n
		n += uint64(bits.OnesCount64(x.dir[w].bits))
	}
	return x
}

// rank is the position in C_k of a key that is in it.
func (x *keyIndex) rank(key uint64) uint64 {
	if x.dir != nil {
		return x.dir[key>>6].rank(key)
	}
	i, _ := slices.BinarySearch(x.keys, key)
	return uint64(i)
}

// rank is keyIndex.rank for a key in this word, small enough to inline
// into packedExtend's loop.
func (d rankWord) rank(key uint64) uint64 {
	return d.below + uint64(bits.OnesCount64(d.bits&(1<<(key&63)-1)))
}

// filter appends the rows whose key is in C_k to out (packedFilter).
func (x *keyIndex) filter(rows, out []prow) []prow {
	if len(x.keys) == 0 {
		return out
	}
	if x.dir != nil {
		return packedFilterBitmap(rows, x.dir, out)
	}
	return packedFilter(rows, x.keys, out)
}
