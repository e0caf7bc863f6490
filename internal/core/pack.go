package core

// The packed-key execution engine. At mine start item ids are
// dictionary-encoded into a dense domain (newPackDict), and an R'_k row
// is a (trans_id, key) pair whose key codes the whole k-pattern in one
// 64-bit word so that unsigned integer order on keys equals
// lexicographic order on patterns. The key layout:
//
//   - k <= 2: the item codes bit-packed, item_1 in the most significant
//     bits — SALES rows carry one code, R'_2 rows code_1<<bits | code_2;
//   - k >= 3: rank(prefix in C_{k-1}) << bits | code(last item), the
//     prefix's position among the frequent (k-1)-patterns in ascending
//     order. Every R'_k row extends an R_{k-1} row, whose pattern is in
//     C_{k-1}, so the rank always exists; and ranks ascend with the
//     prefixes, so the order argument survives. This is AprioriTid's
//     candidate id (Agrawal & Srikant, VLDB 1994) taken a relation at a
//     time. The key space shrinks from 2^(k*bits) points to
//     |C_{k-1}|*2^bits (keySpace), which puts every quest pass that has
//     candidate rows on the count table. The extension looks the rank up once per
//     R_{k-1} row through C_{k-1}'s keyIndex, and decodeRanked reads a
//     C_k key back through the decoded C_{k-1}. Measured on bench/
//     (seed 1, 15 s, one CPU of a 2-vCPU Xeon VM): mine_p50_s
//     quest-resident 0.201 -> 0.143 s over ten alternating pairs, the
//     traced k=3 pass 57 -> 24 ms.
//
// A border snapshot keeps these keys as the executor counted them, and
// MineDelta re-ranks a level's prefixes into its own run (deltaSeed).
// The per-iteration kernels then collapse:
//
//   - the paper's sorts become byte-wise LSD radix passes over a single
//     column, or are skipped outright when a pre-scan proves the input
//     already ordered (the common case: extension and filtering both
//     preserve (trans_id, items) order);
//   - the count step ("sort R'_k on items; count") is a counting table
//     when the key space is narrow, radix sort + run count otherwise.
//     The key is a perfect hash of the pattern, so one pass of tab[key]++
//     over a []uint32 of one cell per key-space point and a scan of the
//     table in index order yield exactly the ascending (key, count) list
//     the sort produces — no key-column clone, no radix buffer, and in the
//     spilled regime no key runs and no merge. The rule
//     (costmodel.CountTableFits) is computed from what the pass observes:
//     the table is used iff its bytes (4*|C_{k-1}|*2^bits from k = 3)
//     do not exceed the sort buffers it replaces — 16 B per key, i.e.
//     16*|R'_k| resident and 2*8*capKeys under a memory budget — and the
//     key space is within maxCountTableBits. Every packed count site,
//     resident or spilled, goes through countRows / keyCounter, which
//     share the two kernels below. Measured on bench/ (seed 3, 15 s, one CPU):
//     mine_p50_s quest-resident 0.32 -> 0.125 s over three alternating
//     pairs, quest-spilled 0.90 -> 0.36 s (a mine writes 7 runs instead
//     of 31), retail-resident 14.0 -> 9.3 ms;
//   - the support filter is a bitmap probe when the key space is narrow
//     enough to map densely, else a binary search over the C_k keys;
//   - at k = 2 extension, count and filter become the pairs pass (below)
//     whenever the table would count R'_2: R'_2 is every pair of a
//     basket's codes, so one scan of SALES counts the pairs on the table
//     and a second emits those in C_2 as R_2, and R'_2 is never written.
//
// Because a rank-coded key is |C_{k-1}|*2^bits wide whatever k is, these
// kernels run every pass of every mine (keyFits). The generic int64
// relation kernels of relation.go remain the conformance oracle behind
// Options.DisablePackedKernels.

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

// prow is one packed R_k row: the Tid field holds the basket ordinal
// (the memo's tids maps it back to trans_id, see baskets), the Key field
// the k item codes with item_1 in the most significant bits. It IS the
// storage layer's packed row — the in-memory kernels and the spilled
// page runs share one representation, so spilling a relation is a raw
// memory write, never a re-encoding.
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

// buildDict collects the distinct items of packSales' rows, whose keys
// still hold the sign-flipped items, into a dictionary with tables of its
// own (the dataset's memo holds it). When the item-id span is small
// enough that the look-up table could exist at all (distinct <= rows),
// the distinct items are found by one presence pass over a span-sized
// table, which then becomes the look-up table; otherwise a copy of the
// key column is radix-sorted and compacted.
func buildDict(raw []prow, txns int) *packDict {
	lo, hi := int64(0), int64(-1)
	if len(raw) > 0 {
		lo = int64(raw[0].Key ^ tidFlip)
		hi = lo
	}
	for _, r := range raw {
		lo, hi = min(lo, int64(r.Key^tidFlip)), max(hi, int64(r.Key^tidFlip))
	}
	var items []int64
	var present []uint32
	if span, ok := lutSpan(lo, hi, len(raw)); ok {
		present = make([]uint32, span)
		for _, r := range raw {
			present[int64(r.Key^tidFlip)-lo] = 1
		}
		for i, p := range present {
			if p != 0 {
				items = append(items, lo+int64(i))
			}
		}
	} else {
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = r.Key
		}
		xsort.RadixSortU64(keys, make([]uint64, len(keys)))
		for i, v := range keys {
			if i == 0 || v != keys[i-1] {
				items = append(items, int64(v^tidFlip))
			}
		}
	}
	// The look-up table, when the distinct count admits one, reuses the
	// presence table (the sort path never qualifies: distinct <= rows).
	return newPackDict(items, txns, present)
}

// code returns the dense code of an item known to be in the dictionary.
func (d *packDict) code(item int64) uint64 {
	if d.lut != nil {
		return uint64(d.lut[item-d.lo])
	}
	i, _ := slices.BinarySearch(d.items, item)
	return uint64(i)
}

// recode replaces the sign-flipped items in the keys of packSales' rows
// with their codes. Codes ascend with the items, so the rows stay sorted.
func (d *packDict) recode(rows []prow) {
	for i, r := range rows {
		rows[i].Key = d.code(int64(r.Key ^ tidFlip))
	}
}

// baskets is packed SALES indexed by basket, a basket being the rows of
// one trans_id. Baskets are numbered in trans_id order and a row's Tid is
// its basket's ordinal, so (Tid, Key) order is still (trans_id, item)
// order; an ordinal indexes its basket's rows directly, which is what
// lets the extension look a basket up instead of merge-scanning SALES.
// Ordinals and starts are 32-bit: a data set holds fewer than 2^32 SALES
// rows (64 GiB of them).
type baskets struct {
	rows   []prow   // sorted by (basket, code); codes ascend within a basket
	starts []uint32 // basket b is rows[starts[b]:starts[b+1]]; len(tids)+1 entries
	tids   []uint64 // basket -> trans_id XOR tidFlip, strictly ascending
}

// after is basket b's suffix of codes above last: the extensions of an
// R_{k-1} row of that basket whose last item's code is last.
func (s *baskets) after(b, last uint64) []prow {
	bk := s.rows[s.starts[b]:s.starts[b+1]]
	lo, hi := 0, len(bk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bk[mid].Key <= last {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return bk[lo:]
}

// packSales builds SALES(trans_id, item) as packed rows indexed by basket
// (baskets), items deduplicated per transaction and rows globally sorted
// by (trans_id, item), into buffers of their own. A key holds the item
// sign-flipped (so unsigned order is item order) until recode makes it
// the item's code: the packed R_1, the twin of salesRelation.
func packSales(d *Dataset) baskets {
	total := 0
	for _, tx := range d.Transactions {
		total += len(tx.Items)
	}
	rows := make([]prow, total)
	n := 0
	ascending := true // the trans_ids, strictly
	for i, tx := range d.Transactions {
		ascending = ascending && (i == 0 || d.Transactions[i-1].ID < tx.ID)
		start, utid := n, uint64(tx.ID)^tidFlip
		for _, it := range tx.Items {
			// Insertion into the transaction's sorted rows, dropping a
			// duplicate: baskets are short and usually already sorted.
			key := uint64(it) ^ tidFlip
			j := n
			for j > start && rows[j-1].Key > key {
				j--
			}
			if j > start && rows[j-1].Key == key {
				continue
			}
			if j < n {
				copy(rows[j+1:n+1], rows[j:n])
			}
			rows[j] = prow{Tid: utid, Key: key}
			n++
		}
	}
	rows = rows[:n]
	if !ascending {
		xsort.RadixSortRows(rows, make([]prow, len(rows)))
	}
	// Number the baskets: a trans_id spread over several transactions is
	// one basket, and an empty transaction is none.
	b := baskets{rows: rows, starts: make([]uint32, 0, len(d.Transactions)+1), tids: make([]uint64, 0, len(d.Transactions))}
	for i, r := range rows {
		if len(b.tids) == 0 || r.Tid != b.tids[len(b.tids)-1] {
			b.starts = append(b.starts, uint32(i))
			b.tids = append(b.tids, r.Tid)
		}
		rows[i].Tid = uint64(len(b.tids) - 1)
	}
	b.starts = append(b.starts, uint32(n))
	return b
}

// prowsSorted reports whether rows are ordered by (tid, key) — the
// sortedness pre-scan that lets steppers skip the paper's re-sorts. It
// stays out of line: inlined into stepResident the loop is compiled with
// that function's registers and placement and moves with every edit
// there (9.03 -> 9.18 ms a retail mine across one such edit; 8.78 out
// of line).
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

// packedExtend is Figure 4's extension step, R_{k-1} ⋈ SALES on
// trans_id, as a look-up: a row's Tid is its basket's ordinal in sales,
// whose codes ascend, so its extensions are the basket's suffix past its
// last item's code, appended whole. prefixes is C_{k-1}'s index when
// R'_k is rank-coded (k >= 3): the extended key is then the row's rank
// in C_{k-1}, shifted; nil bit-packs (k = 2).
// Appends to out and returns it; the output inherits (basket, key)
// order.
func packedExtend(rk []prow, sales *baskets, itemBits uint, prefixes *keyIndex, out []prow) []prow {
	mask := uint64(1)<<itemBits - 1
	var dir []rankWord // the rank directory, looked up inline
	if prefixes != nil {
		dir = prefixes.dir
	}
	for _, r := range rk {
		last, base := r.Key&mask, r.Key
		switch {
		case dir != nil:
			base = dir[r.Key>>6].rank(r.Key)
		case prefixes != nil:
			base = prefixes.rank(r.Key)
		}
		base <<= itemBits
		for _, s := range sales.after(r.Tid, last) {
			out = append(out, prow{Tid: r.Tid, Key: base | s.Key})
		}
	}
	return out
}

// packedExtendRows is |R'_k| without materializing it: the lengths of
// the suffixes packedExtend appends, summed.
func packedExtendRows(rk []prow, sales *baskets, itemBits uint) int {
	mask := uint64(1)<<itemBits - 1
	n := 0
	for _, r := range rk {
		n += len(sales.after(r.Tid, r.Key&mask))
	}
	return n
}

// ---------------------------------------------------------------------------
// The pairs pass

// At k = 2, R_{k-1} is SALES itself, and R'_2 = SALES ⋈ SALES on trans_id
// is every pair of a basket's items in code order: its rows are known
// from SALES alone, so the pass never writes them. Scan 1 (pairsCount)
// counts each pair on the count table, C_2 is read out and indexed as
// for any pass, and scan 2 (pairsEmit) walks the same pairs again and
// keeps the ones in C_2 — R_2, row for row the filter of the materialized
// R'_2. Both scans take a range [lo, hi) of SALES rows and pair each row
// in it with the rest of its basket, which may run past hi: a fanned-out
// pass cuts SALES anywhere, and each pair belongs to the chunk holding
// its first row. A trans_id spread over several transactions repeats
// codes within a basket; only a strictly larger code pairs, as in
// packedExtend. A basket ends where the memo's starts says, and an R_2
// row carries its first SALES row's basket ordinal, which is all pass 3's
// look-up needs. From k = 3 a second scan of R_{k-1} × SALES costs more
// than writing a selective R'_k (ROADMAP, "Measured and rejected").

// pairStart is the first row of rows[p]'s basket (which ends at end)
// with a code larger than rows[p]'s: where its pairs start.
func pairStart(rows []prow, p, end int) int {
	q := p + 1
	for q < end && rows[q].Key == rows[p].Key {
		q++
	}
	return q
}

// pairsCount is scan 1: tab[code_p<<bits | code_q]++ for every pair of
// rows p < q of a basket, p in rows[lo:hi]; SALES is rows, its basket
// index starts.
func pairsCount(rows []prow, starts []uint32, lo, hi int, bits uint, tab []uint32) {
	for p := lo; p < hi; {
		end := int(starts[rows[p].Tid+1])
		for stop := min(end, hi); p < stop; p++ {
			base := rows[p].Key << bits
			for _, r := range rows[pairStart(rows, p, end):end] {
				tab[base|r.Key]++
			}
		}
	}
}

// pairsEmit is scan 2: the pairs of pairsCount's walk whose key is in C_2
// (ck), appended to out as R_2 rows in (trans_id, key) order.
func pairsEmit(rows []prow, starts []uint32, lo, hi int, bits uint, ck *keyIndex, out []prow) []prow {
	if len(ck.keys) == 0 {
		return out
	}
	dir := ck.dir
	for p := lo; p < hi; {
		end := int(starts[rows[p].Tid+1])
		for stop := min(end, hi); p < stop; p++ {
			tid, base := rows[p].Tid, rows[p].Key<<bits
			for _, r := range rows[pairStart(rows, p, end):end] {
				key := base | r.Key
				if dir != nil {
					if dir[key>>6].bits&(1<<(key&63)) == 0 {
						continue
					}
				} else if _, ok := slices.BinarySearch(ck.keys, key); !ok {
					continue
				}
				out = append(out, prow{Tid: tid, Key: key})
			}
		}
	}
	return out
}

// salesPairs is |R'_2|, known ahead of pass 2: the pairs pairsCount
// walks over all of SALES, counted without a table. The data set's memo
// holds it; the pass's rule and its IterationStat read it there.
func salesPairs(rows []prow, starts []uint32) int64 {
	var n int64
	for p := 0; p < len(rows); {
		for end := int(starts[rows[p].Tid+1]); p < end; p++ {
			n += int64(end - pairStart(rows, p, end))
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

// mergePackedCounts merges ascending packed count lists (per-chunk counts,
// or a refresh's snapshot and delta counts), summing counts of keys that
// appear in several lists and keeping those meeting minSup. Appends to
// dst.
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

// bitSpace is the key space of bit-packed k-patterns, 2^(k*bits)
// points, saturating at 2^63: the executor's at k <= 2.
func (d *packDict) bitSpace(k int) uint64 {
	if kb := uint(k) * d.bits; kb < 63 {
		return 1 << kb
	}
	return 1 << 63
}

// keySpace is the number of points in the executor's level-k key space:
// bitSpace(k) while k <= 2, and from k = 3 one row of 2^bits last-item
// codes per rank of C_{k-1}, whose size is prev — |C_{k-1}|*2^bits,
// saturating at 2^63.
func (d *packDict) keySpace(k, prev int) uint64 {
	if k <= 2 {
		return d.bitSpace(k)
	}
	if d.bits >= 63 || uint64(prev) > 1<<(63-d.bits) {
		return 1 << 63
	}
	return uint64(prev) << d.bits
}

// keyFits reports whether the executor's level-k keys fit one word: two
// codes at k = 2, and from k = 3 a key space of |C_{k-1}|*2^bits <= 2^64
// points, prev being |C_{k-1}|.
func (d *packDict) keyFits(k, prev int) bool {
	if k <= 2 {
		return uint(k)*d.bits <= 64
	}
	return uint64(prev) <= 1<<(64-d.bits)
}

// countTableCells is the size of the direct-address count table over a
// key space of space points, one cell per point, or 0 when the pass must
// sort: the space is wider than maxCountTableBits, or supports could
// overflow a uint32 cell.
func (d *packDict) countTableCells(space uint64) int {
	if d.counts32 && space <= 1<<maxCountTableBits {
		return int(space)
	}
	return 0
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

// sumTables adds the workers' count tables into the first and returns it.
func sumTables(tabs [][]uint32) []uint32 {
	acc := tabs[0]
	for _, tab := range tabs[1:] {
		for key, c := range tab {
			acc[key] += c
		}
	}
	return acc
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
// that ran. cells is the pass's countTableCells. Narrow key spaces count
// straight off the rows into the
// arena's tables — one per chunk, summed element-wise — and a
// table-counted pass tallies one skipped sort; otherwise each chunk's key
// column is cloned into the arena and sorted, and the per-chunk counts
// are merged under the threshold. The kernel rule is applied per chunk —
// a chunk's table against the keys that chunk counts — on the longest.
func countRows(chunks [][]prow, cells int, minSup int64, ar *mineArena, dst pkCounts, skips *int64) (pkCounts, string) {
	W := len(chunks)
	ar.workerSlots(W)
	total, longest := 0, 0
	for _, c := range chunks {
		total += len(c)
		longest = max(longest, len(c))
	}

	if countTableFits(cells, longest) {
		eachChunk(W, func(i int) {
			ar.wTab[i] = tableCountRows(chunks[i], ar.wTab[i], cells)
		})
		*skips++
		return emitCountTable(sumTables(ar.wTab[:W]), minSup, dst), CountTable
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
// bitmap test — used whenever the key space is narrow enough to map
// densely (see buildKeyIndex).
func packedFilterBitmap(rPrime []prow, dir []rankWord, out []prow) []prow {
	for _, r := range rPrime {
		if dir[r.Key>>6].bits&(1<<(r.Key&63)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// decodePatterns expands bit-packed counts into the public ItemsetCount
// form. All pattern slices share one backing array: two allocations per
// C_k regardless of pattern count.
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

// decodeRanked is decodePatterns for rank-coded counts: a key's pattern
// is C_{k-1}[rank]'s items (prev, decoded) followed by its last item.
func decodeRanked(pk pkCounts, prev []ItemsetCount, dict *packDict) []ItemsetCount {
	if len(pk.keys) == 0 {
		return nil
	}
	k := len(prev[0].Items) + 1
	out := make([]ItemsetCount, len(pk.keys))
	backing := make([]Item, len(pk.keys)*k)
	mask := uint64(1)<<dict.bits - 1
	for i, key := range pk.keys {
		items := backing[i*k : (i+1)*k : (i+1)*k]
		copy(items, prev[key>>dict.bits].Items)
		items[k-1] = dict.items[key&mask]
		out[i] = ItemsetCount{Items: items, Count: pk.counts[i]}
	}
	return out
}

// encodeLevel is the decoders' inverse, for the resume path and the
// border snapshot: the executor's level-k count list of the decoded,
// ascending ck — codes while k <= 2, prefixes ranked in prev = C_{k-1}
// from k = 3. A pattern this dataset's level k cannot hold (a wrong
// length, an item outside the dictionary, a prefix not in prev) reports
// false.
func encodeLevel(ck, prev []ItemsetCount, k int, dict *packDict) (pkCounts, bool) {
	if !dict.keyFits(k, len(prev)) {
		return pkCounts{}, false
	}
	pk := pkCounts{keys: make([]uint64, len(ck)), counts: make([]int64, len(ck))}
	for i, c := range ck {
		if len(c.Items) != k {
			return pkCounts{}, false
		}
		last, ok := slices.BinarySearch(dict.items, c.Items[k-1])
		if !ok {
			return pkCounts{}, false
		}
		prefix := 0
		switch {
		case k == 2:
			if prefix, ok = slices.BinarySearch(dict.items, c.Items[0]); !ok {
				return pkCounts{}, false
			}
		case k >= 3:
			prefix = searchCounts(prev, c.Items[:k-1])
			if prefix == len(prev) || compareItems(prev[prefix].Items, c.Items[:k-1]) != 0 {
				return pkCounts{}, false
			}
		}
		pk.keys[i], pk.counts[i] = uint64(prefix)<<dict.bits|uint64(last), c.Count
	}
	return pk, true
}

// The packed-key substrate's stepper lives in executor.go: the adaptive
// executor runs these kernels directly on arena-backed slices in its
// resident regime and over spillable relations (spill.go) past the
// memory budget.
