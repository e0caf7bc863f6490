package exec

import (
	"math/rand"
	"testing"

	"setm/internal/tuple"
)

// heapFile builds a heap file from rows (several pages when rows is large
// enough: ~250 two-int rows per 4 KB page).
// keyRuns generates n (trans_id, item) rows ascending on trans_id with
// duplicate-key runs, the physical shape of every SETM relation.
func keyRuns(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, 0, n)
	tid := int64(0)
	for len(rows) < n {
		tid += 1 + rng.Int63n(3)
		run := 1 + rng.Intn(6)
		for j := 0; j < run && len(rows) < n; j++ {
			rows = append(rows, []int64{tid, rng.Int63n(50)})
		}
	}
	return rows
}

// TestHashGroupMatchesSortGroup: the hash aggregate emits what sorting and
// then SortGroup emit — same groups, same order, every aggregate kind —
// on a multi-page input, on an empty one, and again when re-opened.
func TestHashGroupMatchesSortGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows [][]int64
	for i := 0; i < 5000; i++ {
		rows = append(rows, []int64{rng.Int63n(97), rng.Int63n(13), rng.Int63n(1000)})
	}
	schema := tuple.IntSchema("a", "b", "v")
	specs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Col: 2, Name: "s"},
		{Kind: AggMin, Col: 2, Name: "mn"},
		{Kind: AggMax, Col: 2, Name: "mx"},
	}
	groupCols := []int{0, 1}
	for label, in := range map[string][][]int64{"5000 rows": rows, "empty": nil} {
		f := heapFile(t, nil, schema, in)
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
