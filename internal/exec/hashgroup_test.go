package exec

import (
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

// keyRuns generates n (trans_id, item) rows ascending on trans_id with
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

// TestHashGroupMatchesSortGroup: the hash aggregate emits what sorting and
// then SortGroup emit — same groups, same order, every aggregate kind —
// on a multi-page input, on an empty one, and again when re-opened.
func TestHashGroupMatchesSortGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows []tuple.Tuple
	for i := 0; i < 5000; i++ {
		rows = append(rows, tuple.Ints(rng.Int63n(97), rng.Int63n(13), rng.Int63n(1000)))
	}
	schema := tuple.IntSchema("a", "b", "v")
	specs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Col: 2, Name: "s"},
		{Kind: AggMin, Col: 2, Name: "mn"},
		{Kind: AggMax, Col: 2, Name: "mx"},
	}
	groupCols := []int{0, 1}
	for label, in := range map[string][]tuple.Tuple{"5000 rows": rows, "empty": nil} {
		f := heapFile(t, schema, in)
		sorted := NewSortKeys(NewHeapScan(f), []SortKey{{Col: 0}, {Col: 1}}, nil, 0)
		want := drainRows(t, NewSortGroup(sorted, groupCols, specs))
		if (len(want) == 0) != (len(in) == 0) {
			t.Fatalf("%s: setup: reference has %d groups", label, len(want))
		}
		g := NewHashGroup(NewHeapScan(f), groupCols, specs)
		requireSameRows(t, label, drainRows(t, g), want)
		requireSameRows(t, label+", re-opened", drainRows(t, g), want)
	}
}
