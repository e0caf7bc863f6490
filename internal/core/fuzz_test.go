package core

import (
	"context"
	"slices"
	"testing"

	"setm/internal/xsort"
)

// fuzzDataset decodes a byte stream into a dataset: a zero byte starts a
// new transaction, any other byte is an item. Distinct items per
// transaction are capped so candidate generation stays polynomial even at
// support 1, and the stream is truncated to keep single cases fast.
func fuzzDataset(data []byte) *Dataset {
	const (
		maxBytes      = 512
		maxItemsPerTx = 12
	)
	if len(data) > maxBytes {
		data = data[:maxBytes]
	}
	d := &Dataset{}
	id := int64(1)
	var items []Item
	flush := func() {
		if len(items) > 0 {
			d.Transactions = append(d.Transactions, Transaction{ID: id, Items: items})
			// Spread IDs so hash sharding sees gaps.
			id += 1 + int64(len(items)%3)
			items = nil
		}
	}
	for _, b := range data {
		if b == 0 {
			flush()
			continue
		}
		if len(items) < maxItemsPerTx {
			items = append(items, Item(b))
		}
	}
	flush()
	if len(d.Transactions) == 0 {
		return nil
	}
	return d
}

// FuzzMine asserts on arbitrary transaction data:
//
//  1. no driver panics;
//  2. C_1 matches a naive oracle (per-item distinct-transaction counts);
//  3. the parallel and partitioned drivers return counts bit-identical
//     to the serial driver.
func FuzzMine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3}, uint8(2), uint8(2))
	f.Add([]byte{5, 5, 5, 0, 5}, uint8(1), uint8(3))
	f.Add([]byte{10, 20, 30, 40, 50, 0, 10, 20, 30, 0, 10, 20}, uint8(2), uint8(1))
	f.Add([]byte{1}, uint8(1), uint8(0))
	f.Add([]byte{255, 254, 253, 0, 255, 254, 0, 255}, uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, minSup, workers uint8) {
		d := fuzzDataset(data)
		if d == nil {
			return
		}
		opts := Options{
			MinSupportCount: int64(minSup%8) + 1,
			MaxPatternLen:   5,
		}
		res, err := MineMemory(d, opts)
		if err != nil {
			t.Fatalf("MineMemory: %v", err)
		}

		// Oracle for C_1: count distinct transactions per item.
		oracle := make(map[Item]int64)
		for _, tx := range d.Transactions {
			seen := make(map[Item]bool, len(tx.Items))
			for _, it := range tx.Items {
				if !seen[it] {
					seen[it] = true
					oracle[it]++
				}
			}
		}
		want := make(map[Item]int64)
		for it, n := range oracle {
			if n >= opts.MinSupportCount {
				want[it] = n
			}
		}
		got := make(map[Item]int64)
		for _, c := range res.C(1) {
			if len(c.Items) != 1 {
				t.Fatalf("C_1 pattern of length %d", len(c.Items))
			}
			got[c.Items[0]] = c.Count
		}
		if len(got) != len(want) {
			t.Fatalf("C_1 size %d, oracle %d", len(got), len(want))
		}
		for it, n := range want {
			if got[it] != n {
				t.Fatalf("C_1[%d] = %d, oracle %d", it, got[it], n)
			}
		}

		// Cross-driver agreement on the full result.
		fanned := opts
		fanned.MaxWorkers = int(workers%5) + 1
		par, err := MineAuto(d, fanned)
		if err != nil {
			t.Fatalf("MineAuto: %v", err)
		}
		fuzzSameCounts(t, "auto", res, par)

		// Packed engine vs the generic oracle on the same run.
		gen := opts
		gen.DisablePackedKernels = true
		genRes, err := MineMemory(d, gen)
		if err != nil {
			t.Fatalf("MineMemory generic: %v", err)
		}
		fuzzSameCounts(t, "generic-oracle", genRes, res)
	})
}

// FuzzPackedKernels cross-checks the packed kernels against the generic
// int64 kernels at the relation level: arbitrary rows are packed, then
// sort / count / filter must round-trip to exactly what relation.go
// computes, and the count step's two kernels — direct-address table and
// radix sort + run count — must return identical packed counts for the
// drawn (keys, key width) at the drawn threshold and at the extremes 1
// and n.
//
// The same rows then run whole passes on a drawn catalogue width: their
// transactions plus 2^width singleton transactions of unseen items,
// which widen the item codes without adding a candidate. Narrow draws
// put the rank-coded passes (k >= 3) on the count table, wide ones on
// the sort, and either must match the flat reference pass by pass.
func FuzzPackedKernels(f *testing.F) {
	f.Add([]byte{1, 5, 3, 2, 4, 1, 1, 5, 3}, uint8(2), uint8(2), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint8(1), uint8(1), uint8(3))
	f.Add([]byte{3, 200, 100, 3, 200, 100, 7, 1, 2}, uint8(3), uint8(2), uint8(12))
	f.Add([]byte{1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 2, 7, 2, 8}, uint8(0), uint8(3), uint8(6))
	f.Add([]byte{1, 1, 2, 3, 1, 1, 2, 4, 1, 1, 3, 4, 1, 2, 3, 4, 2, 1, 2, 3, 2, 1, 2, 4, 2, 1, 3, 4, 2, 2, 3, 4,
		3, 1, 2, 3, 3, 1, 2, 4, 3, 2, 3, 4, 4, 1, 2, 3, 4, 2, 3, 4, 5, 1, 3, 4, 5, 1, 2, 4}, uint8(2), uint8(1), uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, minSupRaw, widthRaw uint8) {
		k := int(kRaw%3) + 1
		st := k + 1
		n := len(data) / st
		if n == 0 {
			return
		}
		if n > 96 {
			n = 96
		}
		minSup := int64(minSupRaw%4) + 1

		// Rebuild the bytes as a flat relation; small domains force key
		// collisions, offsets force negative items and tids.
		rel := relation{stride: st, data: make([]int64, 0, n*st)}
		for i := 0; i < n; i++ {
			row := data[i*st : (i+1)*st]
			rel.data = append(rel.data, int64(row[0]%13)-2)
			for c := 1; c < st; c++ {
				rel.data = append(rel.data, int64(row[c]%24)-8)
			}
		}

		// Dictionary over the item columns, then pack every row.
		var all []int64
		for i := 0; i < n; i++ {
			all = append(all, rel.items(i)...)
		}
		slices.Sort(all)
		dict := newPackDict(slices.Compact(all), n, nil)
		if uint(k)*dict.bits > 64 {
			return
		}
		rows := make([]prow, n)
		for i := 0; i < n; i++ {
			var key uint64
			for _, it := range rel.items(i) {
				key = key<<dict.bits | dict.code(it)
			}
			rows[i] = prow{Tid: uint64(rel.tid(i)) ^ tidFlip, Key: key}
		}

		// Sort on (trans_id, items): radix vs the generic relation sort.
		genSorted := rel.clone()
		sortRelation(genSorted, 0)
		sortedRows := append([]prow(nil), rows...)
		xsort.RadixSortRows(sortedRows, make([]prow, n))
		if got := unpackRel(relation{stride: k + 1}, sortedRows, dict); !slices.Equal(got.data, genSorted.data) {
			t.Fatalf("row sort mismatch:\ngot  %v\nwant %v", got.data, genSorted.data)
		}

		// Count at minSup: key radix + run scan vs the generic count.
		keys := make([]uint64, n)
		for i, r := range rows {
			keys[i] = r.Key
		}
		xsort.RadixSortU64(keys, make([]uint64, n))
		if !xsort.KeysSorted(keys) {
			t.Fatal("radixSortU64 left keys unsorted")
		}
		pk := xsort.CountRuns(keys, minSup, pkCounts{})
		got := decodePatterns(pk, k, dict)
		want, _ := countPatterns(rel, minSup)
		if len(got) != len(want) {
			t.Fatalf("count: %d patterns, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Count != want[i].Count || compareItems(got[i].Items, want[i].Items) != 0 {
				t.Fatalf("count[%d] = %v:%d, want %v:%d", i, got[i].Items, got[i].Count, want[i].Items, want[i].Count)
			}
		}

		// Table ≡ sort: the table kernel off the unsorted rows against the
		// run count of the sorted keys, then the dispatching kernel (which
		// picks by the size rule) against itself with the table ruled out.
		cells := bitCells(dict, k)
		if cells != 1<<(uint(k)*dict.bits) {
			t.Fatalf("countTableCells(%d) = %d at %d bits per item", k, cells, dict.bits)
		}
		for _, ms := range []int64{1, minSup, int64(n)} {
			bySort := xsort.CountRuns(keys, ms, pkCounts{})
			byTable := xsort.EmitCountTable(tableCountRows(rows, nil, cells), ms, pkCounts{})
			if !samePkCounts(byTable, bySort) {
				t.Fatalf("minSup=%d: table kernel %v:%v, sort kernel %v:%v", ms, byTable.Keys, byTable.Counts, bySort.Keys, bySort.Counts)
			}
			var a1, a2 mineArena
			var s1, s2 int64
			got, _ := countRows([][]prow{rows}, bitCells(dict, k), ms, &a1, pkCounts{}, &s1)
			want, kernel := countRows([][]prow{rows}, bitCells(sortDict(dict), k), ms, &a2, pkCounts{}, &s2)
			if kernel != CountSort || !samePkCounts(got, want) {
				t.Fatalf("minSup=%d: countRows disagrees with its sort kernel (%s)", ms, kernel)
			}
		}

		// Filter by C_k: binary search and bitmap paths vs the generic
		// filter (both inputs sorted, so outputs must be bit-identical).
		wantF, _ := filterRelation(genSorted, want)
		gotRows := packedFilter(sortedRows, pk.Keys, nil)
		if got := unpackRel(relation{stride: k + 1}, gotRows, dict); !slices.Equal(got.data, wantF.data) {
			t.Fatalf("filter mismatch:\ngot  %v\nwant %v", got.data, wantF.data)
		}
		ar := newMineArena()
		defer ar.release()
		if x := buildKeyIndex(pk.Keys, dict.bitSpace(k), ar); x.dir != nil {
			if bmRows := x.filter(sortedRows, nil); !slices.Equal(bmRows, gotRows) {
				t.Fatalf("bitmap filter disagrees with binary-search filter")
			}
		}

		byTid := map[int64][]Item{}
		for i := 0; i < n; i++ {
			byTid[rel.tid(i)] = append(byTid[rel.tid(i)], rel.items(i)...)
		}
		d := &Dataset{}
		for tid, items := range byTid {
			slices.Sort(items)
			d.Transactions = append(d.Transactions, Transaction{ID: tid, Items: slices.Compact(items)})
		}
		for i := 0; i < 1<<(widthRaw%13); i++ {
			d.Transactions = append(d.Transactions, Transaction{ID: int64(100 + i), Items: []Item{Item(100 + i)}})
		}
		opts := Options{MinSupportCount: minSup, MaxPatternLen: 5, MaxWorkers: 1}
		packed, err := MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DisablePackedKernels = true
		flat, err := MineMemory(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		fuzzSameCounts(t, "packed-vs-flat", flat, packed)
		for i, w := range flat.Stats {
			if g := packed.Stats[i]; g.RPrimeRows != w.RPrimeRows || g.RRows != w.RRows {
				t.Fatalf("k=%d (%s): |R'|=%d |R|=%d, flat reference %d/%d", w.K, g.Plan, g.RPrimeRows, g.RRows, w.RPrimeRows, w.RRows)
			}
		}
	})
}

func fuzzSameCounts(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d iterations, want %d", label, len(got.Counts), len(want.Counts))
	}
	for k := 1; k <= len(want.Counts); k++ {
		cw, cg := want.C(k), got.C(k)
		if len(cw) != len(cg) {
			t.Fatalf("%s: |C_%d| = %d, want %d", label, k, len(cg), len(cw))
		}
		for i := range cw {
			if cw[i].Count != cg[i].Count || compareItems(cw[i].Items, cg[i].Items) != 0 {
				t.Fatalf("%s: C_%d[%d] = %v:%d, want %v:%d", label, k, i,
					cg[i].Items, cg[i].Count, cw[i].Items, cw[i].Count)
			}
		}
	}
}

// FuzzMineDelta asserts on arbitrary base/delta splits that incremental
// mining from a retained border snapshot is bit-identical to a cold
// mine of the concatenated dataset — across both the pure O(delta)
// path and the promotion-triggered executor fallback, at an absolute or
// (minSup's high bit) a fractional threshold — that its refreshed
// snapshot is the one the cold mine keeps, and that it chains to a
// second append with the same guarantee.
func FuzzMineDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 4, 5}, []byte{4, 5, 0, 4, 5, 6}, uint8(2))
	f.Add([]byte{7, 8, 0, 7, 8, 9}, []byte{10, 11, 12}, uint8(1))
	f.Add([]byte{1, 1, 1, 0, 1}, []byte{}, uint8(3))
	f.Add([]byte{20, 30, 0, 20, 30, 40, 0, 20}, []byte{20, 30, 40, 0, 20, 30, 40}, uint8(2))
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 0, 4, 5, 6, 0, 4, 5}, []byte{7, 8, 0, 1, 9}, uint8(128+3))
	f.Fuzz(func(t *testing.T, baseData, deltaData []byte, minSup uint8) {
		base := fuzzDataset(baseData)
		if base == nil {
			return
		}
		delta := fuzzDataset(deltaData)
		opts := Options{
			MinSupportCount: int64(minSup%8) + 1,
			MaxPatternLen:   5,
			RetainBorder:    true,
		}
		if minSup >= 128 {
			opts.MinSupportCount, opts.MinSupportFrac = 0, float64(minSup%8+1)/16
		}
		baseRes, err := MineAuto(base, opts)
		if err != nil {
			t.Fatalf("base mine: %v", err)
		}
		if baseRes.Border == nil {
			t.Fatal("no border snapshot from base mine")
		}
		if delta == nil {
			delta = &Dataset{}
		}
		// Re-anchor delta tids beyond the base (fuzzDataset numbers both
		// from 1) so the split is a valid disjoint append.
		for i := range delta.Transactions {
			delta.Transactions[i].ID += baseRes.Border.MaxTid
		}
		got, err := MineDelta(context.Background(), base, delta, baseRes.Border, opts)
		if err != nil {
			t.Fatalf("MineDelta: %v", err)
		}
		all := &Dataset{}
		all.Transactions = append(all.Transactions, base.Transactions...)
		all.Transactions = append(all.Transactions, delta.Transactions...)
		want, err := MineAuto(all, opts)
		if err != nil {
			t.Fatalf("MineAuto(combined): %v", err)
		}
		fuzzSameCounts(t, "delta-vs-cold", want, got)
		assertSameBorder(t, want.Border, got.Border)

		// Chain: append the base again (tids re-anchored) onto the
		// refreshed snapshot.
		if got.Border == nil {
			t.Fatal("no refreshed snapshot")
		}
		delta2 := &Dataset{}
		for _, tx := range base.Transactions {
			delta2.Transactions = append(delta2.Transactions, Transaction{
				ID: tx.ID + got.Border.MaxTid, Items: tx.Items,
			})
		}
		got2, err := MineDelta(context.Background(), all, delta2, got.Border, opts)
		if err != nil {
			t.Fatalf("chained MineDelta: %v", err)
		}
		all2 := &Dataset{}
		all2.Transactions = append(all2.Transactions, all.Transactions...)
		all2.Transactions = append(all2.Transactions, delta2.Transactions...)
		want2, err := MineAuto(all2, opts)
		if err != nil {
			t.Fatalf("MineAuto(combined2): %v", err)
		}
		fuzzSameCounts(t, "chained-delta-vs-cold", want2, got2)
	})
}
