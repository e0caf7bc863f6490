package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"setm/internal/costmodel"
	"setm/internal/storage"
)

// randKeyRows draws n rows with uniform random keys below 2^keyBits —
// the table kernel's worst case (every increment a fresh cache line) and
// an unsorted input for the sort kernel.
func randKeyRows(seed int64, n int, keyBits uint) []prow {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]prow, n)
	for i := range rows {
		rows[i] = prow{Tid: uint64(i) ^ tidFlip, Key: rng.Uint64() >> (64 - keyBits)}
	}
	return rows
}

// BenchmarkCountKernel measures the two count kernels on the same keys:
// the direct-address table (clear, one increment pass, index-order
// read-out) against the key-column clone + radix sort + run count. It is
// the evidence for maxCountTableBits: wherever the kernel rule admits the
// table (its bytes <= 16 B per key — every point below except 2^24 cells
// x 1M keys, which shows what the rule is for) it must not lose to the
// sort.
func BenchmarkCountKernel(b *testing.B) {
	for _, keyBits := range []uint{10, 20, 24} {
		for _, n := range []int{1 << 20, 5 << 20} {
			rows := randKeyRows(int64(keyBits), n, keyBits)
			cells := 1 << keyBits
			var ar mineArena
			ar.workerSlots(1)
			var dst pkCounts
			kernels := map[string]func(){
				"table": func() {
					ar.wTab[0] = tableCountRows(rows, ar.wTab[0], cells)
					dst = emitCountTable(ar.wTab[0], 1, pkCounts{keys: dst.keys[:0], counts: dst.counts[:0]})
				},
				"sort": func() {
					keys := growU64(ar.keys, len(rows))
					ar.keys = keys
					for j, r := range rows {
						keys[j] = r.Key
					}
					var skips int64
					dst = sortCountKeys(keys, &ar.keysTmp, 1, pkCounts{keys: dst.keys[:0], counts: dst.counts[:0]}, &skips)
				},
			}
			for _, kernel := range []string{"table", "sort"} {
				count := kernels[kernel]
				b.Run(fmt.Sprintf("bits=%d/keys=%dM/%s", keyBits, n>>20, kernel), func(b *testing.B) {
					count() // grow the arena first: steady state is what a mine sees
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						count()
					}
				})
			}
		}
	}
}

// sortDict is dict with the table kernel switched off — how the tests
// obtain the sort kernel's answer for the same pass.
func sortDict(dict *packDict) *packDict {
	d := *dict
	d.counts32 = false
	return &d
}

// bitCells is the count table a pass over bit-packed k-patterns counts
// on (0: it sorts).
func bitCells(dict *packDict, k int) int {
	return dict.countTableCells(dict.bitSpace(k))
}

func samePkCounts(a, b pkCounts) bool {
	return slices.Equal(a.keys, b.keys) && slices.Equal(a.counts, b.counts)
}

// countBoth runs countRows on the dictionary's own kernel choice and on
// the forced sort kernel, requires identical output, and returns the
// kernel the rule chose.
func countBoth(t *testing.T, label string, chunks [][]prow, dict *packDict, k int, minSup int64) string {
	t.Helper()
	var ar, arSort mineArena
	var skips, sortSkips int64
	got, kernel := countRows(chunks, bitCells(dict, k), minSup, &ar, pkCounts{}, &skips)
	want, sk := countRows(chunks, bitCells(sortDict(dict), k), minSup, &arSort, pkCounts{}, &sortSkips)
	if sk != CountSort {
		t.Fatalf("%s: forced sort kernel reported %q", label, sk)
	}
	if !samePkCounts(got, want) {
		t.Fatalf("%s (%s kernel): counts differ from the sort kernel\ngot  %v %v\nwant %v %v",
			label, kernel, got.keys, got.counts, want.keys, want.counts)
	}
	if kernel == CountTable && skips != 1 {
		t.Errorf("%s: table pass tallied %d skipped sorts, want 1", label, skips)
	}
	return kernel
}

// TestCountKernelRuleEdges pins the kernel rule at its boundaries — the
// table is used exactly when its bytes do not exceed 16 B per key — and
// the table kernel's output to the sort kernel's on the degenerate
// inputs: empty, all-equal keys, a count exactly at the threshold.
func TestCountKernelRuleEdges(t *testing.T) {
	items := make([]int64, 64) // 6 bits per code
	for i := range items {
		items[i] = int64(i)
	}
	dict := newPackDict(items, 1000, nil)
	const k = 2 // 12-bit keys: 4096 cells, a 16 KiB table
	cells := bitCells(dict, k)
	if cells != 4096 {
		t.Fatalf("countTableCells(2) = %d, want 4096", cells)
	}
	atEdge := cells * 4 / 16 // keys whose sort buffers equal the table

	// Resident: table bytes == 16*|R'_k|, then one row (16 B) short.
	if got := countBoth(t, "resident at edge", [][]prow{randKeyRows(1, atEdge, 12)}, dict, k, 1); got != CountTable {
		t.Errorf("table bytes == sort bytes: kernel %q, want table", got)
	}
	if got := countBoth(t, "resident under edge", [][]prow{randKeyRows(2, atEdge-1, 12)}, dict, k, 1); got != CountSort {
		t.Errorf("table one row over the sort bytes: kernel %q, want sort", got)
	}
	if costmodel.CountTableFits(int64(cells)*4+1, int64(atEdge)) {
		t.Error("CountTableFits accepted a table one byte over the sort buffers")
	}

	// The streaming key counter's single-counter contract. Bounded: the
	// share is 2*8*capKeys, so at the edge it counts on the table from the
	// first key and writes no run, one key under it sorts bounded runs.
	// Unbounded: it buffers until the table pays (tabAt keys, 16 B each)
	// and then drains into it; an input shorter than that finishes on the
	// sort kernel, in RAM.
	pool := storage.NewPool(storage.NewMemStore(), 16)
	for _, tc := range []struct {
		name         string
		capKeys      int
		nrows        int
		want         string
		tableAtFirst bool // on the table after one key
		runs         bool // key runs written
	}{
		{"bounded at edge", atEdge, 3 * atEdge, CountTable, true, false},
		{"bounded under edge", atEdge - 1, 3 * atEdge, CountSort, false, true},
		{"unbounded switches at tabAt", 0, 3 * atEdge, CountTable, false, false},
		{"unbounded shorter than tabAt", 0, atEdge - 1, CountSort, false, false},
	} {
		var st spillStats
		kc := newKeyCounter(nil, pool, tc.capKeys, 4, cells, &st)
		rows := randKeyRows(3, tc.nrows, 12)
		if tc.capKeys == 0 && kc.tabAt != atEdge {
			t.Errorf("%s: tabAt = %d, want %d", tc.name, kc.tabAt, atEdge)
		}
		// One key, up to one short of the switch point, then the rest, in
		// batches that straddle it.
		if err := kc.addRows(rows[:1]); err != nil {
			t.Fatal(err)
		}
		if (kc.tab != nil) != tc.tableAtFirst {
			t.Errorf("%s: on the table after one key = %v", tc.name, kc.tab != nil)
		}
		head := min(len(rows), atEdge-1)
		if err := kc.addRows(rows[1:head]); err != nil {
			t.Fatal(err)
		}
		if tc.capKeys == 0 && kc.tab != nil {
			t.Errorf("%s: switched to the table at %d keys, before tabAt", tc.name, head)
		}
		for part := rows[head:]; len(part) > 0; {
			n := min(len(part), 37)
			if err := kc.addRows(part[:n]); err != nil {
				t.Fatal(err)
			}
			part = part[n:]
		}
		got, kernel, err := kc.finish(2, pkCounts{})
		if err != nil {
			t.Fatal(err)
		}
		if kernel != tc.want {
			t.Errorf("%s: kernel %q, want %q", tc.name, kernel, tc.want)
		}
		if (st.runs != 0) != tc.runs {
			t.Errorf("%s (%s): %d key runs written", tc.name, kernel, st.runs)
		}
		var ar mineArena
		var skips int64
		want, _ := countRows([][]prow{rows}, bitCells(sortDict(dict), k), 2, &ar, pkCounts{}, &skips)
		if !samePkCounts(got, want) {
			t.Errorf("%s (%s): counts differ from the resident sort kernel", tc.name, kernel)
		}
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d pinned frames left", n)
	}

	// The cap: a key space of exactly maxCountTableBits has a table, one
	// bit more has none, whatever the input size.
	wide := &packDict{bits: maxCountTableBits, counts32: true}
	if got := bitCells(wide, 1); got != 1<<maxCountTableBits {
		t.Errorf("cells at the cap = %d, want 2^%d", got, maxCountTableBits)
	}
	wide.bits++
	if got := bitCells(wide, 1); got != 0 {
		t.Errorf("cells one bit past the cap = %d, want 0", got)
	}

	// Degenerate inputs.
	if got := countBoth(t, "empty", [][]prow{nil}, dict, k, 1); got != CountSort {
		t.Errorf("empty input: kernel %q, want sort (nothing to replace)", got)
	}
	equal := make([]prow, 2*atEdge)
	for i := range equal {
		equal[i] = prow{Tid: uint64(i), Key: 4095}
	}
	countBoth(t, "all-equal", [][]prow{equal}, dict, k, 1)
	countBoth(t, "all-equal over threshold", [][]prow{equal}, dict, k, int64(len(equal))+1)
	exact := append(randKeyRows(4, 2*atEdge, 11), prow{Key: 4000}, prow{Key: 4000}, prow{Key: 4000}) // key 4000 occurs exactly 3 times
	for _, ms := range []int64{3, 4} {
		var ar mineArena
		var skips int64
		got, kernel := countRows([][]prow{exact}, bitCells(dict, k), ms, &ar, pkCounts{}, &skips)
		_, found := slices.BinarySearch(got.keys, 4000)
		if kernel != CountTable || found != (ms == 3) {
			t.Errorf("minSup=%d (%s): key with count 3 present=%v", ms, kernel, found)
		}
		countBoth(t, fmt.Sprintf("exact minSup=%d", ms), [][]prow{exact}, dict, k, ms)
	}
}

// TestCountTableUint32Guard: the table's uint32 cells are safe only
// while no support can reach 2^32, i.e. the dataset has fewer than 2^32
// transactions; at or past that the dictionary must rule the table out
// and every pass sorts.
func TestCountTableUint32Guard(t *testing.T) {
	items := []int64{1, 2, 3, 4}
	limit := int64(1) << 32
	if d := newPackDict(items, int(limit-1), nil); bitCells(d, 1) == 0 {
		t.Error("2^32-1 transactions: table ruled out, want allowed")
	}
	d := newPackDict(items, int(limit), nil)
	if int64(int(limit)) != limit {
		t.Skip("int is 32 bits wide")
	}
	if got := bitCells(d, 1); got != 0 {
		t.Errorf("2^32 transactions: countTableCells = %d, want 0", got)
	}
	rows := randKeyRows(5, 4096, 2)
	var ar mineArena
	var skips int64
	if _, kernel := countRows([][]prow{rows}, bitCells(d, 1), 1, &ar, pkCounts{}, &skips); kernel != CountSort {
		t.Errorf("2^32 transactions: kernel %q, want sort", kernel)
	}
}

// TestCountRowsParallelTables runs the chunked count — one table (or one
// sorted key run) per chunk, tables summed element-wise, runs merged — at
// W = 2 and 4 against the serial table and the sort kernel, on chunks of
// unequal length: an empty one, a short one, and one long enough that the
// kernel rule (applied to the longest chunk) admits the table. CI runs it
// under -race -count=10.
func TestCountRowsParallelTables(t *testing.T) {
	items := make([]int64, 32) // 5 bits: k=2 is a 10-bit key space
	for i := range items {
		items[i] = int64(i) * 3
	}
	dict := newPackDict(items, 1<<20, nil)
	rows := randKeyRows(6, 8*costmodel.ParallelMinRows, 10)
	n := len(rows)
	cuts := map[int][]int{ // chunk end offsets
		2: {n / 5, n},
		4: {n / 16, n / 16, n / 2, n},
	}
	for _, ms := range []int64{1, 40} {
		var ar mineArena
		var skips int64
		serial, kernel := countRows([][]prow{rows}, bitCells(dict, 2), ms, &ar, pkCounts{}, &skips)
		if kernel != CountTable {
			t.Fatalf("serial kernel %q, want table", kernel)
		}
		for _, w := range []int{2, 4} {
			var chunks [][]prow
			start := 0
			for _, end := range cuts[w] {
				chunks = append(chunks, rows[start:end])
				start = end
			}
			label := fmt.Sprintf("W=%d minSup=%d", w, ms)
			if got := countBoth(t, label, chunks, dict, 2, ms); got != CountTable {
				t.Errorf("%s: kernel %q, want table", label, got)
			}
			var arW mineArena
			par, _ := countRows(chunks, bitCells(dict, 2), ms, &arW, pkCounts{}, &skips)
			if !samePkCounts(par, serial) {
				t.Errorf("%s: chunked tables differ from the serial table", label)
			}
		}
	}
}
