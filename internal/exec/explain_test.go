package exec

import (
	"strings"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

func TestExplainRendersEveryOperator(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 16)
	f, err := hp.Create(pool, tuple.IntSchema("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(tuple.Ints(1, 2)); err != nil {
		t.Fatal(err)
	}

	scan := NewHeapScan(f)
	renamed := NewRename(scan, tuple.IntSchema("t.k", "t.v"))
	filtered := NewFilter(renamed, func(tuple.Tuple) (bool, error) { return true, nil })
	sorted := NewSortKeys(filtered, []SortKey{{Col: 0}}, nil, 0)
	right := NewMemScan(tuple.IntSchema("u.k"), []tuple.Tuple{tuple.Ints(1)})
	joined := NewMergeJoin(sorted, right, []int{0}, []int{0}, nil)
	grouped := NewSortGroup(joined, []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	projected := NewProjectColumns(grouped, []int{0, 1}, grouped.Schema())
	distinct := NewDistinct(projected)
	limited := NewLimit(distinct, 10)

	out := Explain(limited)
	for _, want := range []string{
		"Limit 10", "Distinct", "Project", "SortGroup", "MergeJoin",
		"Sort", "Filter", "Rename", "HeapScan", "MemScan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Indentation reflects depth: Limit at 0, Distinct at 1.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "Limit") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  Distinct") {
		t.Errorf("second line = %q", lines[1])
	}
}

func TestExplainNestedLoop(t *testing.T) {
	l := NewMemScan(tuple.IntSchema("a"), nil)
	r := NewMemScan(tuple.IntSchema("b"), nil)
	out := Explain(NewNestedLoopJoin(l, r, nil))
	if !strings.Contains(out, "NestedLoopJoin") {
		t.Errorf("missing NestedLoopJoin:\n%s", out)
	}
}
