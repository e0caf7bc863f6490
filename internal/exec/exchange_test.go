package exec

import (
	"fmt"
	"math/rand"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// heapFile builds a heap file from rows (several pages when rows is large
// enough: ~250 two-int rows per 4 KB page).
func heapFile(t testing.TB, schema *tuple.Schema, rows []tuple.Tuple) *hp.File {
	t.Helper()
	pool := storage.NewPool(storage.NewMemStore(), 64)
	f, err := hp.Create(pool, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	return f
}

func wantRows(t testing.TB, got, want []tuple.Tuple, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// sortedPairs generates n (trans_id, item) rows ascending on trans_id with
// duplicate-key runs, the physical shape of every SETM relation.
func keyRuns(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, 0, n)
	tid := int64(0)
	for len(rows) < n {
		tid += 1 + rng.Int63n(3)
		run := 1 + rng.Intn(6)
		for j := 0; j < run && len(rows) < n; j++ {
			rows = append(rows, tuple.Ints(tid, rng.Int63n(50)))
		}
	}
	return rows
}

func TestGatherPreservesSerialScanOrder(t *testing.T) {
	rows := keyRuns(3000, 1)
	f := heapFile(t, tuple.IntSchema("trans_id", "item"), rows)
	want, err := Drain(NewHeapScan(f))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{2, 3, 4, 7} {
		frags := FragmentScans(NewHeapScan(f), dop)
		if frags == nil {
			t.Fatalf("FragmentScans(dop=%d) = nil for %d-page file", dop, f.Pages())
		}
		g := NewGather(frags, dop)
		got, err := Drain(g)
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, got, want, fmt.Sprintf("gather dop=%d", dop))
		var sum int64
		for _, r := range g.WorkerRows() {
			sum += r
		}
		if sum != int64(len(want)) {
			t.Fatalf("WorkerRows sum = %d, want %d", sum, len(want))
		}
	}
}

func TestGatherReopen(t *testing.T) {
	rows := keyRuns(1200, 2)
	f := heapFile(t, tuple.IntSchema("a", "b"), rows)
	g := NewGather(FragmentScans(NewHeapScan(f), 3), 3)
	first, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, second, first, "reopened gather")
}

func TestFragmentScansClonesStatelessPipeline(t *testing.T) {
	rows := keyRuns(2500, 3)
	schema := tuple.IntSchema("trans_id", "item")
	f := heapFile(t, schema, rows)
	build := func() Operator {
		even := func(b *tuple.Batch, in, out []int32) ([]int32, error) {
			v := b.Cols[1].I
			for _, i := range in {
				if v[i]%2 == 0 {
					out = append(out, i)
				}
			}
			return out, nil
		}
		var op Operator = NewHeapScan(f)
		op = NewFilterVec(op, []VecPredicate{even}, nil)
		op = NewProjectColumns(op, []int{1, 0}, tuple.IntSchema("item", "trans_id"))
		return NewRename(op, tuple.IntSchema("i", "t"))
	}
	want, err := Drain(build())
	if err != nil {
		t.Fatal(err)
	}
	frags := FragmentScans(build(), 4)
	if frags == nil {
		t.Fatal("FragmentScans rejected a stateless Rename/Project/Filter/HeapScan pipeline")
	}
	got, err := Drain(NewGather(frags, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got, want, "fragmented pipeline")
}

func TestFragmentScansRejectsUnsupportedShapes(t *testing.T) {
	rows := keyRuns(2000, 4)
	f := heapFile(t, tuple.IntSchema("a", "b"), rows)
	if FragmentScans(NewHeapScan(f), 1) != nil {
		t.Error("split with n<2 accepted")
	}
	small := heapFile(t, tuple.IntSchema("a", "b"), rows[:10])
	if FragmentScans(NewHeapScan(small), 4) != nil {
		t.Error("single-page file split accepted")
	}
	if FragmentScans(NewHeapScanRange(f, 0, 2), 2) != nil {
		t.Error("already-ranged scan split accepted")
	}
	pred := func(tp tuple.Tuple) (bool, error) { return tp[0].Int%2 == 0, nil }
	if FragmentScans(NewFilter(NewHeapScan(f), pred), 2) != nil {
		t.Error("row-predicate filter split accepted (closures may share scratch)")
	}
	if FragmentScans(NewLimit(NewHeapScan(f), 5), 2) != nil {
		t.Error("Limit split accepted")
	}
}

func TestWindowBounds(t *testing.T) {
	var rows []tuple.Tuple
	for i := int64(0); i < 100; i++ {
		rows = append(rows, tuple.Ints(i/4)) // keys 0..24, runs of 4
	}
	s := NewMemScan(tuple.IntSchema("k"), rows)
	for _, tc := range []struct {
		lo, hi       int64
		hasLo, hasHi bool
		want         int
	}{
		{0, 0, false, false, 100},
		{10, 0, true, false, 60}, // keys 10..24
		{0, 10, false, true, 40}, // keys 0..9
		{5, 7, true, true, 8},    // keys 5, 6
		{25, 0, true, false, 0},  // past the end
		{0, 0, false, true, 0},   // empty upper window
	} {
		got, err := Drain(NewWindow(s, 0, tc.lo, tc.hasLo, tc.hi, tc.hasHi))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.want {
			t.Errorf("window [%d,%d) hasLo=%v hasHi=%v: %d rows, want %d",
				tc.lo, tc.hi, tc.hasLo, tc.hasHi, len(got), tc.want)
		}
	}
}

func TestSplitByKeyPartitionsRowsExactly(t *testing.T) {
	rows := keyRuns(4000, 5)
	f := heapFile(t, tuple.IntSchema("trans_id", "item"), rows)
	for _, n := range []int{2, 3, 4, 8} {
		ranges, err := SplitByKey(f, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		var got []tuple.Tuple
		for _, kr := range ranges {
			part, err := Drain(NewWindow(NewHeapScanRange(f, kr.PageStart, kr.PageEnd),
				0, kr.Lo, kr.HasLo, kr.Hi, kr.HasHi))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, part...)
		}
		wantRows(t, got, rows, fmt.Sprintf("SplitByKey n=%d (%d ranges)", n, len(ranges)))
	}
}

func TestProbeRangeFindsLowerBoundPage(t *testing.T) {
	rows := keyRuns(4000, 6)
	f := heapFile(t, tuple.IntSchema("trans_id", "item"), rows)
	for lo := int64(0); lo < 200; lo += 17 {
		start, err := ProbeRange(f, 0, lo, true)
		if err != nil {
			t.Fatal(err)
		}
		// Every row with key >= lo must live at or after page start.
		got, err := Drain(NewWindow(NewHeapScanRange(f, start, f.Pages()), 0, lo, true, 0, false))
		if err != nil {
			t.Fatal(err)
		}
		var want []tuple.Tuple
		for _, r := range rows {
			if r[0].Int >= lo {
				want = append(want, r)
			}
		}
		wantRows(t, got, want, fmt.Sprintf("ProbeRange lo=%d start=%d", lo, start))
	}
	if start, err := ProbeRange(f, 0, 0, false); err != nil || start != 0 {
		t.Errorf("ProbeRange without lower bound = (%d, %v), want (0, nil)", start, err)
	}
}

func TestSplitMergeJoinBitIdentical(t *testing.T) {
	left := keyRuns(3000, 8)
	right := keyRuns(5000, 9)
	lf := heapFile(t, tuple.IntSchema("trans_id", "item"), left)
	rf := heapFile(t, tuple.IntSchema("trans_id", "item"), right)
	for _, gt := range []bool{false, true} {
		serial := NewMergeJoin(NewHeapScan(lf), NewHeapScan(rf), []int{0}, []int{0}, nil)
		if gt {
			serial.SetVecResidualGT(1, 1)
		}
		want, err := Drain(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			m := NewMergeJoin(NewHeapScan(lf), NewHeapScan(rf), []int{0}, []int{0}, nil)
			if gt {
				m.SetVecResidualGT(1, 1)
			}
			g := SplitMergeJoin(m, workers)
			if g == nil {
				t.Fatalf("SplitMergeJoin(workers=%d, gt=%v) = nil", workers, gt)
			}
			got, err := Drain(g)
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, got, want, fmt.Sprintf("split merge join workers=%d gt=%v", workers, gt))
		}
	}
}

func TestSplitMergeJoinRejectsUnsupportedShapes(t *testing.T) {
	rows := keyRuns(2000, 10)
	f := heapFile(t, tuple.IntSchema("trans_id", "item"), rows)
	m := NewMergeJoin(NewHeapScan(f), NewHeapScan(f), []int{0}, []int{0}, nil)
	if SplitMergeJoin(m, 1) != nil {
		t.Error("workers<2 accepted")
	}
	resid := NewMergeJoin(NewHeapScan(f), NewHeapScan(f), []int{0}, []int{0},
		func(l, r tuple.Tuple) (bool, error) { return true, nil })
	if SplitMergeJoin(resid, 4) != nil {
		t.Error("row residual accepted (closure may share scratch)")
	}
	sorted := NewMergeJoin(NewSortKeys(NewHeapScan(f), []SortKey{{Col: 0}}, nil, 0),
		NewHeapScan(f), []int{0}, []int{0}, nil)
	if SplitMergeJoin(sorted, 4) != nil {
		t.Error("non-scan-pipeline input accepted")
	}
}

func TestParallelGroupMatchesSortGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows []tuple.Tuple
	for i := 0; i < 5000; i++ {
		rows = append(rows, tuple.Ints(rng.Int63n(97), rng.Int63n(13), rng.Int63n(1000)))
	}
	schema := tuple.IntSchema("a", "b", "v")
	f := heapFile(t, schema, rows)
	specs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Col: 2, Name: "s"},
		{Kind: AggMin, Col: 2, Name: "mn"},
		{Kind: AggMax, Col: 2, Name: "mx"},
	}
	groupCols := []int{0, 1}
	sorted := NewSortKeys(NewHeapScan(f), []SortKey{{Col: 0}, {Col: 1}}, nil, 0)
	want, err := Drain(NewSortGroup(sorted, groupCols, specs))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2, 4} {
		frags := FragmentScans(NewHeapScan(f), dop)
		if frags == nil {
			frags = []Operator{NewHeapScan(f)}
		}
		got, err := Drain(NewParallelGroup(frags, groupCols, specs, dop))
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, got, want, fmt.Sprintf("ParallelGroup dop=%d", dop))
	}
}

func TestParallelSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var rows []tuple.Tuple
	for i := 0; i < 6000; i++ {
		rows = append(rows, tuple.Ints(rng.Int63n(500), rng.Int63n(50), int64(i)))
	}
	schema := tuple.IntSchema("a", "b", "payload")
	f := heapFile(t, schema, rows)
	keys := []SortKey{{Col: 0}, {Col: 1}}
	want, err := Drain(NewSortKeys(NewHeapScan(f), keys, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{2, 4} {
		frags := FragmentScans(NewHeapScan(f), dop)
		par := NewSortKeys(NewGather(frags, dop), keys, nil, 0)
		par.SetParallel(dop)
		got, err := Drain(par)
		if err != nil {
			t.Fatal(err)
		}
		// Payload column makes the comparison order-sensitive on ties: the
		// parallel permutation must equal the serial (input-order) one.
		wantRows(t, got, want, fmt.Sprintf("parallel sort dop=%d", dop))
	}
}

func TestSortSkipsAlreadySortedInput(t *testing.T) {
	rows := keyRuns(3000, 13)
	f := heapFile(t, tuple.IntSchema("trans_id", "item"), rows)
	got, err := Drain(NewSortKeys(NewHeapScan(f), []SortKey{{Col: 0}}, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Single-key sorted input: output must be the identity permutation —
	// item values stay in input order within equal trans_id runs.
	wantRows(t, got, rows, "sort of pre-sorted input")
}

// FuzzExecParallel feeds random tables through the parallel operators and
// checks each against its serial equivalent: Gather vs serial scan,
// ParallelGroup vs sort+SortGroup, split merge join vs serial merge join,
// partitioned hash-join builds vs the serial build.
func FuzzExecParallel(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(50))
	f.Add(int64(2), uint8(2), uint8(3))
	f.Add(int64(3), uint8(7), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, workers, keyDomain uint8) {
		dop := int(workers%7) + 2
		dom := int64(keyDomain)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(4000)
		rows := make([]tuple.Tuple, 0, n)
		tid := int64(0)
		for len(rows) < n {
			tid += 1 + rng.Int63n(2)
			run := 1 + rng.Intn(4)
			for j := 0; j < run && len(rows) < n; j++ {
				rows = append(rows, tuple.Ints(tid, rng.Int63n(dom)))
			}
		}
		schema := tuple.IntSchema("trans_id", "item")
		hf := heapFile(t, schema, rows)

		want, err := Drain(NewHeapScan(hf))
		if err != nil {
			t.Fatal(err)
		}
		if frags := FragmentScans(NewHeapScan(hf), dop); frags != nil {
			got, err := Drain(NewGather(frags, dop))
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, got, want, "fuzz gather")
		}

		specs := []AggSpec{{Kind: AggCount, Name: "cnt"}, {Kind: AggMax, Col: 0, Name: "mx"}}
		sorted := NewSortKeys(NewHeapScan(hf), []SortKey{{Col: 1}}, nil, 0)
		wantG, err := Drain(NewSortGroup(sorted, []int{1}, specs))
		if err != nil {
			t.Fatal(err)
		}
		frags := FragmentScans(NewHeapScan(hf), dop)
		if frags == nil {
			frags = []Operator{NewHeapScan(hf)}
		}
		gotG, err := Drain(NewParallelGroup(frags, []int{1}, specs, dop))
		if err != nil {
			t.Fatal(err)
		}
		wantRows(t, gotG, wantG, "fuzz parallel group")

		serial := NewMergeJoin(NewHeapScan(hf), NewHeapScan(hf), []int{0}, []int{0}, nil)
		serial.SetVecResidualGT(1, 1)
		wantJ, err := Drain(serial)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMergeJoin(NewHeapScan(hf), NewHeapScan(hf), []int{0}, []int{0}, nil)
		m.SetVecResidualGT(1, 1)
		if g := SplitMergeJoin(m, dop); g != nil {
			gotJ, err := Drain(g)
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, gotJ, wantJ, "fuzz split merge join")
		}

		// The join kernels with key runs longer than a batch on one side:
		// HashJoin's partitioned build (1, 2, 4 workers) and MergeJoin must
		// reproduce the reference whichever side carries the runs.
		runs := joinRows(rng, 1100+rng.Intn(1200), 1+int(keyDomain)%3, seed%2 == 0)
		few := joinRows(rng, rng.Intn(10), len(joinKeyVals), seed%2 == 0)
		joinKernelCases(t, "fuzz long right runs", few, runs)
		joinKernelCases(t, "fuzz long left runs", runs, few)
	})
}
