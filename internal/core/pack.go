package core

// The packed-key execution engine. At mine start item ids are
// dictionary-encoded into a dense domain (newPackDict); while
// k*bitsPerItem fits one 64-bit word, an R'_k row is a (trans_id, key)
// pair with the whole pattern bit-packed into the key — item_1 in the
// most significant bits — so unsigned integer order on keys equals
// lexicographic order on patterns. The per-iteration kernels then
// collapse:
//
//   - the paper's sorts become byte-wise LSD radix passes over a single
//     column, or are skipped outright when a pre-scan proves the input
//     already ordered (the common case: extension and filtering both
//     preserve (trans_id, items) order);
//   - the count step ("sort R'_k on items; count") is a counting table
//     when the packed key space is narrow, radix sort + run count
//     otherwise. The packed key is a perfect hash of the pattern, so one
//     pass of tab[key]++ over a []uint32 of 2^(k*bitsPerItem) cells and a
//     scan of the table in index order yield exactly the ascending
//     (key, count) list the sort produces — no key-column clone, no
//     scratch, and in the spilled regime no key runs and no merge. The
//     rule (costmodel.CountTableFits) is computed from what the pass
//     observes: the table is used iff its bytes do not exceed the sort
//     buffers it replaces — 16 B per key, i.e. 16*|R'_k| resident and
//     2*8*capKeys under a memory budget — and the key space is within
//     maxCountTableBits. Every packed count site (resident serial and
//     fanned out, spilled key counters, the delta miner) goes through
//     countRows / keyCounter, which share the two kernels below.
//     Measured on bench/ (seed 3, 15 s, one CPU):
//     mine_p50_s quest-resident 0.32 -> 0.125 s over three alternating
//     pairs, quest-spilled 0.90 -> 0.36 s (a mine writes 7 runs instead
//     of 31), retail-resident 14.0 -> 9.3 ms;
//   - the support filter is a binary search over the packed C_k keys, or
//     a bitmap probe when the key space is narrow.
//
// Patterns too wide to pack (k*bitsPerItem > 64) fall back mid-run to
// the generic int64 relation kernels of relation.go, which also remain
// the conformance oracle behind Options.DisablePackedKernels.

import (
	"math/bits"
	"slices"

	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/xsort"
)

// tidFlip turns an int64 trans_id into a uint64 whose unsigned order
// matches the signed order, so radix passes over raw bytes sort
// correctly even for negative ids.
const tidFlip = uint64(1) << 63

// prow is one packed R_k row: the Tid field holds trans_id XOR tidFlip,
// the Key field the k item codes with item_1 in the most significant
// bits. It IS the storage layer's packed row — the in-memory kernels and
// the spilled page runs share one representation, so spilling a relation
// is a raw memory write, never a re-encoding.
type prow = storage.PackedRow

// packDict is the order-preserving dense item dictionary: code i stands
// for the i-th smallest distinct item, so code order equals item order.
type packDict struct {
	items []int64 // code -> item, ascending
	bits  uint    // bits per item code (>= 1)

	// lut, when non-nil, maps item-lo to its code in O(1); it exists when
	// the item-id span is within dictLUTSpanFactor of the distinct count.
	// Cells of absent items are never read.
	lut []uint32
	lo  int64

	// counts32 records that no support count can overflow a uint32 cell
	// of the count table: items are deduplicated per transaction, so a
	// pattern's support never exceeds the transaction count.
	counts32 bool
}

// dictLUTSpanFactor bounds the dictionary's direct look-up table: the
// item-id span may be at most this many times the distinct item count
// (dense catalogues are; hashed or sparse ids fall back to binary search).
const dictLUTSpanFactor = 4

// dictBits is the code width of a dictionary of n distinct items.
func dictBits(n int) uint {
	if n > 1 {
		return uint(bits.Len64(uint64(n - 1)))
	}
	return 1
}

// lutSpan returns the item-id span hi-lo+1 when it is at most
// dictLUTSpanFactor*n, and whether it is.
func lutSpan(lo, hi int64, n int) (int, bool) {
	d := uint64(hi) - uint64(lo) // exact for hi >= lo, even across the sign
	if d >= uint64(dictLUTSpanFactor)*uint64(n) {
		return 0, false
	}
	return int(d) + 1, true
}

// newPackDict builds a dictionary from the ascending distinct item list
// of a dataset of txns transactions. lutBuf, when large enough, backs the
// look-up table.
func newPackDict(sortedDistinct []int64, txns int, lutBuf []uint32) *packDict {
	n := len(sortedDistinct)
	d := &packDict{items: sortedDistinct, bits: dictBits(n), counts32: uint64(txns) < 1<<32}
	if n == 0 {
		return d
	}
	if span, ok := lutSpan(sortedDistinct[0], sortedDistinct[n-1], n); ok {
		d.lo = sortedDistinct[0]
		d.lut = growU32(lutBuf, span)
		for c, it := range sortedDistinct {
			d.lut[it-d.lo] = uint32(c)
		}
	}
	return d
}

// buildDict collects the distinct items of a dataset into a dictionary
// whose tables live in the arena (valid until the arena is released at
// pipeline end, which outlives every use of the dictionary). When the
// item-id span is small enough that the look-up table could exist at all
// (distinct <= occurrences), the distinct items are found by one presence
// pass over a span-sized table; otherwise the (sign-flipped) occurrences
// are radix-sorted through the arena's key buffers and compacted.
func buildDict(d *Dataset, ar *mineArena) *packDict {
	total := 0
	lo, hi := int64(0), int64(-1)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			if total == 0 || it < lo {
				lo = it
			}
			if total == 0 || it > hi {
				hi = it
			}
			total++
		}
	}
	items := ar.dictBuf[:0]
	if span, ok := lutSpan(lo, hi, total); ok {
		present := growU32(ar.dictLUT, span)
		clear(present)
		for _, tx := range d.Transactions {
			for _, it := range tx.Items {
				present[it-lo] = 1
			}
		}
		for i, p := range present {
			if p != 0 {
				items = append(items, lo+int64(i))
			}
		}
		ar.dictLUT = present
	} else {
		ar.keys = growU64(ar.keys, total)
		all := ar.keys[:0]
		for _, tx := range d.Transactions {
			for _, it := range tx.Items {
				all = append(all, uint64(it)^tidFlip)
			}
		}
		ar.keysTmp = growU64(ar.keysTmp, len(all))
		xsort.RadixSortU64(all, ar.keysTmp)
		var prev uint64
		for i, v := range all {
			if i == 0 || v != prev {
				items = append(items, int64(v^tidFlip))
				prev = v
			}
		}
	}
	ar.dictBuf = items
	// The look-up table, when the distinct count admits one, reuses the
	// presence table (the sort path never qualifies: distinct <= total).
	return newPackDict(items, len(d.Transactions), ar.dictLUT)
}

// code returns the dense code of an item known to be in the dictionary.
func (d *packDict) code(item int64) uint64 {
	if d.lut != nil {
		return uint64(d.lut[item-d.lo])
	}
	i, _ := slices.BinarySearch(d.items, item)
	return uint64(i)
}

// maxPackedK is the longest pattern length one key can hold.
func (d *packDict) maxPackedK() int { return int(64 / d.bits) }

// packSales builds the packed R_1 = SALES(trans_id, item code), items
// deduplicated per transaction and rows globally sorted by
// (trans_id, code) — the packed twin of salesRelation. With workers > 1
// (and enough rows to pay for it) the transactions are packed in that
// many ranges concurrently, each into the stretch of the buffer its items
// would fill if none were duplicates, and the gaps deduplication left are
// closed afterwards.
func packSales(d *Dataset, dict *packDict, ar *mineArena, workers int) []prow {
	txns := d.Transactions
	total := 0
	for _, tx := range txns {
		total += len(tx.Items)
	}
	W := 1
	if workers > 1 && total >= parallelMinRows {
		W = min(workers, len(txns))
	}
	ar.workerSlots(W)
	buf := growProws(ar.salesBuf, total)
	per := (len(txns) + W - 1) / W
	ranges, offs, parts := make([][]Transaction, W), make([]int, W), make([][]prow, W)
	for i, off := 0, 0; i < W; i++ {
		ranges[i] = txns[min(i*per, len(txns)):min((i+1)*per, len(txns))]
		offs[i] = off
		for _, tx := range ranges[i] {
			off += len(tx.Items)
		}
	}
	eachChunk(W, func(i int) {
		parts[i] = packBaskets(ranges[i], dict, buf[offs[i]:offs[i]], &ar.wTmp[i])
	})
	rows := parts[0]
	for i := 1; i < W; i++ {
		if len(rows) == offs[i] {
			rows = rows[:len(rows)+len(parts[i])] // no gap before this stretch
		} else {
			rows = append(rows, parts[i]...) // leftwards within buf; copy handles the overlap
		}
	}
	ar.salesBuf = rows
	if !prowsSorted(rows) {
		ar.rowsTmp = growProws(ar.rowsTmp, len(rows))
		xsort.RadixSortRows(rows, ar.rowsTmp)
	}
	return rows
}

// packBaskets appends the packed rows of txns to out — a transaction's
// items encoded, sorted and deduplicated through *scratch — and returns it.
func packBaskets(txns []Transaction, dict *packDict, out []prow, scratch *[]uint64) []prow {
	codes := (*scratch)[:0]
	for _, tx := range txns {
		codes = codes[:0]
		for _, it := range tx.Items {
			codes = append(codes, dict.code(it))
		}
		// Baskets are short; insertion sort beats the generic sort here.
		for i := 1; i < len(codes); i++ {
			v := codes[i]
			j := i - 1
			for j >= 0 && codes[j] > v {
				codes[j+1] = codes[j]
				j--
			}
			codes[j+1] = v
		}
		utid := uint64(tx.ID) ^ tidFlip
		var prev uint64
		for i, c := range codes {
			if i > 0 && c == prev {
				continue
			}
			prev = c
			out = append(out, prow{Tid: utid, Key: c})
		}
	}
	*scratch = codes
	return out
}

// prowsSorted reports whether rows are ordered by (tid, key) — the
// sortedness pre-scan that lets steppers skip the paper's re-sorts. It is
// 16% of a retail mine and stays out of line: inlined into stepResident
// the loop is compiled with that function's registers and placement and
// moves with every edit there (9.03 -> 9.18 ms a retail mine across PR
// 27's edit; 8.78 out of line).
//
//go:noinline
func prowsSorted(rows []prow) bool {
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Tid > b.Tid || (a.Tid == b.Tid && a.Key > b.Key) {
			return false
		}
	}
	return true
}

// keysSorted reports whether keys are in ascending order.
func keysSorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// packedExtend is the merge-scan join of packed R_{k-1} with packed R_1
// (Figure 4's extension step): both inputs sorted by trans_id; within a
// transaction each pattern is extended by the sale items whose code
// exceeds its last item's. Appends to out and returns it; the output
// inherits (trans_id, key) order.
func packedExtend(rk, sales []prow, itemBits uint, out []prow) []prow {
	mask := uint64(1)<<itemBits - 1
	nr, ns := len(rk), len(sales)
	i, j := 0, 0
	for i < nr && j < ns {
		tid := rk[i].Tid
		switch {
		case sales[j].Tid < tid:
			j++
		case sales[j].Tid > tid:
			i++
		default:
			iEnd := i
			for iEnd < nr && rk[iEnd].Tid == tid {
				iEnd++
			}
			jEnd := j
			for jEnd < ns && sales[jEnd].Tid == tid {
				jEnd++
			}
			for p := i; p < iEnd; p++ {
				last := rk[p].Key & mask
				base := rk[p].Key << itemBits
				for q := j; q < jEnd; q++ {
					if it := sales[q].Key; it > last {
						out = append(out, prow{Tid: tid, Key: base | it})
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out
}

// packedExtendRows is |R'_k| without materializing it: packedExtend's
// merge-scan with the appends counted instead of made.
func packedExtendRows(rk, sales []prow, itemBits uint) int {
	mask := uint64(1)<<itemBits - 1
	nr, ns := len(rk), len(sales)
	i, j, n := 0, 0, 0
	for i < nr && j < ns {
		tid := rk[i].Tid
		switch {
		case sales[j].Tid < tid:
			j++
		case sales[j].Tid > tid:
			i++
		default:
			iEnd := i
			for iEnd < nr && rk[iEnd].Tid == tid {
				iEnd++
			}
			jEnd := j
			for jEnd < ns && sales[jEnd].Tid == tid {
				jEnd++
			}
			for p := i; p < iEnd; p++ {
				last := rk[p].Key & mask
				for q := j; q < jEnd; q++ {
					if sales[q].Key > last {
						n++
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// The count step

// pkCounts is a packed count relation C_k: ascending pattern keys with
// their support counts in parallel slices.
type pkCounts struct {
	keys   []uint64
	counts []int64
}

// packedCountRuns scans ascending keys and appends one (key, count) per
// run meeting minSup to dst — the paper's sequential count scan as an
// integer-equality loop.
func packedCountRuns(keys []uint64, minSup int64, dst pkCounts) pkCounts {
	n := len(keys)
	i := 0
	for i < n {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		if int64(j-i) >= minSup {
			dst.keys = append(dst.keys, keys[i])
			dst.counts = append(dst.counts, int64(j-i))
		}
		i = j
	}
	return dst
}

// mergePackedCounts merges per-chunk packed count lists, summing counts
// of keys that appear in several lists and keeping those meeting minSup —
// the packed twin of mergeFlatCounts. Appends to dst.
func mergePackedCounts(parts []pkCounts, minSup int64, dst pkCounts) pkCounts {
	heads := make([]int, len(parts))
	for {
		best := -1
		var bk uint64
		for i, h := range heads {
			if h >= len(parts[i].keys) {
				continue
			}
			if k := parts[i].keys[h]; best == -1 || k < bk {
				best, bk = i, k
			}
		}
		if best == -1 {
			return dst
		}
		var total int64
		for i, h := range heads {
			if h < len(parts[i].keys) && parts[i].keys[h] == bk {
				total += parts[i].counts[h]
				heads[i] = h + 1
			}
		}
		if total >= minSup {
			dst.keys = append(dst.keys, bk)
			dst.counts = append(dst.counts, total)
		}
	}
}

// countTableCells is the size of pass k's direct-address count table,
// one cell per point of the k*bits-bit key space, or 0 when the pass
// must sort: the key space is wider than maxCountTableBits, or supports
// could overflow a uint32 cell.
func (d *packDict) countTableCells(k int) int {
	if keyBits := uint(k) * d.bits; d.counts32 && keyBits <= maxCountTableBits {
		return 1 << keyBits
	}
	return 0
}

// countTableBytes is countTableCells in bytes, the planner's unit.
func (d *packDict) countTableBytes(k int) int64 {
	return int64(d.countTableCells(k)) * costmodel.CountCellBytes
}

// countTableFits applies the kernel rule to a table of cells cells and
// the keys keys it would count.
func countTableFits(cells, keys int) bool {
	return costmodel.CountTableFits(int64(cells)*costmodel.CountCellBytes, int64(keys))
}

// tableCountRows is the table kernel's single pass: tab[key]++ for every
// row, into a zeroed table of cells cells carved from buf.
func tableCountRows(rows []prow, buf []uint32, cells int) []uint32 {
	tab := growU32(buf, cells)
	clear(tab)
	for _, r := range rows {
		tab[r.Key]++
	}
	return tab
}

// emitCountTable is the table kernel's read-out: cells scanned in index
// order are keys in ascending order, so appending every (key, count >=
// minSup) to dst yields exactly what sorting and run-counting the same
// keys would.
func emitCountTable(tab []uint32, minSup int64, dst pkCounts) pkCounts {
	for key, c := range tab {
		if c != 0 && int64(c) >= minSup {
			dst.keys = append(dst.keys, uint64(key))
			dst.counts = append(dst.counts, int64(c))
		}
	}
	return dst
}

// sortCountKeys is the sort kernel over a key buffer the caller owns:
// sortedness pre-scan, radix sort through *tmp when needed, run count.
func sortCountKeys(keys []uint64, tmp *[]uint64, minSup int64, dst pkCounts, skips *int64) pkCounts {
	if keysSorted(keys) {
		*skips++
	} else {
		*tmp = growU64(*tmp, len(keys))
		xsort.RadixSortU64(keys, *tmp)
	}
	return packedCountRuns(keys, minSup, dst)
}

// countRows is the count step over resident rows: C_k at minSup from
// the keys of chunks (R'_k as the pass's workers hold it, or SALES at
// k=1; one chunk is the serial count), appended to dst, plus the kernel
// that ran. Narrow key spaces count straight off the rows into the
// arena's tables — one per chunk, summed element-wise — and a
// table-counted pass tallies one skipped sort; otherwise each chunk's key
// column is cloned into the arena and sorted, and the per-chunk counts
// are merged under the threshold. The kernel rule is applied per chunk —
// a chunk's table against the keys that chunk counts — on the longest.
func countRows(chunks [][]prow, dict *packDict, k int, minSup int64, ar *mineArena, dst pkCounts, skips *int64) (pkCounts, string) {
	W := len(chunks)
	ar.workerSlots(W)
	total, longest := 0, 0
	for _, c := range chunks {
		total += len(c)
		longest = max(longest, len(c))
	}

	if cells := dict.countTableCells(k); countTableFits(cells, longest) {
		eachChunk(W, func(i int) {
			ar.wTab[i] = tableCountRows(chunks[i], ar.wTab[i], cells)
		})
		acc := ar.wTab[0]
		for _, tab := range ar.wTab[1:W] {
			for key, c := range tab {
				acc[key] += c
			}
		}
		*skips++
		return emitCountTable(acc, minSup, dst), CountTable
	}

	keys := growU64(ar.keys, total)
	ar.keys = keys
	if W == 1 {
		for i, r := range chunks[0] {
			keys[i] = r.Key
		}
		return sortCountKeys(keys, &ar.keysTmp, minSup, dst, skips), CountSort
	}
	starts := make([]int, W)
	for i := 1; i < W; i++ {
		starts[i] = starts[i-1] + len(chunks[i-1])
	}
	eachChunk(W, func(i int) {
		part := keys[starts[i] : starts[i]+len(chunks[i])]
		for j, r := range chunks[i] {
			part[j] = r.Key
		}
		ar.wSkips[i] = 0
		ar.wCounts[i] = sortCountKeys(part, &ar.wTmp[i], 1, pkCounts{
			keys:   ar.wCounts[i].keys[:0],
			counts: ar.wCounts[i].counts[:0],
		}, &ar.wSkips[i])
	})
	for _, n := range ar.wSkips[:W] {
		*skips += n
	}
	return mergePackedCounts(ar.wCounts[:W], minSup, dst), CountSort
}

// packedFilter keeps the rows whose key occurs in the ascending ckKeys —
// the paper's C_k look-up as a binary search. Appends to out; row order
// (and so the (trans_id, items) sort) is preserved.
func packedFilter(rPrime []prow, ckKeys []uint64, out []prow) []prow {
	if len(ckKeys) == 0 {
		return out
	}
	for _, r := range rPrime {
		if _, ok := slices.BinarySearch(ckKeys, r.Key); ok {
			out = append(out, r)
		}
	}
	return out
}

// packedFilterBitmap is packedFilter with the C_k look-up as an O(1)
// bitmap test — used whenever the k*bitsPerItem key space is narrow
// enough to map densely (see buildKeyBitmap).
func packedFilterBitmap(rPrime []prow, bm []uint64, out []prow) []prow {
	for _, r := range rPrime {
		if bm[r.Key>>6]&(1<<(r.Key&63)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// decodePatterns expands packed counts into the public ItemsetCount form.
// All pattern slices share one backing array: two allocations per C_k
// regardless of pattern count.
func decodePatterns(pk pkCounts, k int, dict *packDict) []ItemsetCount {
	if len(pk.keys) == 0 {
		return nil
	}
	out := make([]ItemsetCount, len(pk.keys))
	backing := make([]Item, len(pk.keys)*k)
	mask := uint64(1)<<dict.bits - 1
	for i, key := range pk.keys {
		items := backing[i*k : (i+1)*k : (i+1)*k]
		for c := 0; c < k; c++ {
			items[c] = dict.items[(key>>(uint(k-1-c)*dict.bits))&mask]
		}
		out[i] = ItemsetCount{Items: items, Count: pk.counts[i]}
	}
	return out
}

// unpackRel appends packed rows of k-item patterns to the flat relation
// rel (stride k+1) — the bridge to the int64 kernels when patterns
// outgrow the 64-bit key.
func unpackRel(rel relation, rows []prow, dict *packDict) relation {
	k := rel.stride - 1
	mask := uint64(1)<<dict.bits - 1
	for _, r := range rows {
		rel.data = append(rel.data, int64(r.Tid^tidFlip))
		for c := 0; c < k; c++ {
			rel.data = append(rel.data, dict.items[(r.Key>>(uint(k-1-c)*dict.bits))&mask])
		}
	}
	return rel
}

// The packed-key substrate's stepper lives in executor.go: the adaptive
// executor runs these kernels directly on arena-backed slices in its
// resident regime and over spillable relations (spill.go) past the
// memory budget.
