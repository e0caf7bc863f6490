package exec

import (
	"strings"
	"testing"

	"setm/internal/tuple"
)

func TestExplainRendersEveryOperator(t *testing.T) {
	f := heapFile(t, nil, tuple.IntSchema("k", "v"), [][]int64{{1, 2}})

	scan := NewHeapScan(f)
	renamed := NewRename(scan, tuple.IntSchema("t.k", "t.v"))
	filtered := NewFilter(renamed, []VecPredicate{rowPred(func([]int64) bool { return true })})
	sorted := NewSortKeys(filtered, []SortKey{{Col: 0}}, nil, 0)
	right := NewMemScan(tuple.IntSchema("u.k"), [][]int64{{1}})
	joined := NewMergeJoin(sorted, right, []int{0}, []int{0})
	joined.SetVecResidualGT(1, 0)
	grouped := NewSortGroup(joined, []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	hashed := NewHashGroup(NewHashJoin(grouped, NewHeapScan(f), []int{0}, []int{0}), []int{0}, nil)
	projected := NewProject(hashed, hashed.Schema(), []Expr{ColExpr(0)})

	out := Explain(projected)
	for _, want := range []string{
		"Project", "HashGroup", "HashJoin", "SortGroup", "MergeJoin", "residual R[0] > L[1]",
		"Sort", "Filter", "Rename", "HeapScan", "MemScan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Indentation reflects depth: Project at 0, HashGroup at 1.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "Project") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  HashGroup") {
		t.Errorf("second line = %q", lines[1])
	}
}
