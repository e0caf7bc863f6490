package core

import "sync"

// mineArena holds the scratch buffers one mining run threads through
// its iterations: the radix ping-pong buffers, the count step's tables
// (or, on the sort kernel, its key-column clone), the filtered R_k, the
// packed C_k, and the per-worker slots a pass's chunks live in. Buffers
// grow to the high-water mark of the run and are reused verbatim
// afterwards, so steady-state iterations allocate (almost) nothing.
type mineArena struct {
	rkBuf    []prow   // R_k, the filter output (a fanned-out pass gathers wKeep here)
	rowsTmp  []prow   // radix scratch for (tid, key) sorts
	salesBuf []prow   // packed R_1
	keys     []uint64 // key-column clone sorted by the count step's sort kernel
	keysTmp  []uint64 // radix scratch for serial key sorts
	kcKeys   []uint64 // the streaming key counter's bounded key buffer
	bitmap   []uint64 // C_k membership bitmap for the filter step
	dictBuf  []int64  // the dictionary's code -> item table
	dictLUT  []uint32 // the dictionary's item -> code table (and presence pass)

	// Per-worker slots, one per chunk of a resident pass. Slot 0 is the
	// serial pass's: a one-chunk pass extends into wRows[0] and counts on
	// wTab[0], and so does the streaming path (its appender's resident
	// portion, its one key counter's table and scratch).
	wRows   [][]prow   // R'_k, chunk by chunk: extended here, counted and filtered from here
	wKeep   [][]prow   // a fanned-out pass's filter output per chunk, gathered into rkBuf
	wCounts []pkCounts // per-chunk count runs of the sort kernel
	wTmp    [][]uint64 // per-chunk radix scratch (and packSales' per-transaction code scratch)
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
// (table bytes <= 16 B per key counted) admits only from 4M keys up.
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

// maxFilterBitmapBits bounds the key space a filter bitmap will cover:
// 2^22 bits is a 512 KiB bitmap, cleared and refilled per iteration from
// the arena. Wider key spaces fall back to binary search over C_k.
const maxFilterBitmapBits = 22

// buildKeyBitmap fills an arena-backed bitmap with the C_k keys so the
// filter step tests membership in O(1), or returns nil when the key
// space is too wide to map densely.
func buildKeyBitmap(ckKeys []uint64, keyBits uint, ar *mineArena) []uint64 {
	if keyBits > maxFilterBitmapBits {
		return nil
	}
	words := int((uint64(1)<<keyBits + 63) / 64)
	bm := growU64(ar.bitmap, words)
	ar.bitmap = bm
	clear(bm)
	for _, k := range ckKeys {
		bm[k>>6] |= 1 << (k & 63)
	}
	return bm
}

// packedSalesWindow returns the sub-slice of sales (sorted by tid)
// covering the tid range [loTid, hiTid].
func packedSalesWindow(sales []prow, loTid, hiTid uint64) []prow {
	lo, hi := 0, len(sales)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sales[mid].Tid < loTid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	lo, hi = first, len(sales)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sales[mid].Tid <= hiTid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return sales[first:lo]
}
