package exec

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"setm/internal/storage"
	"setm/internal/tuple"
)

func mem(names string, rows ...[]int64) *MemScan {
	var cols []string
	start := 0
	for i := 0; i <= len(names); i++ {
		if i == len(names) || names[i] == ',' {
			cols = append(cols, names[start:i])
			start = i + 1
		}
	}
	return NewMemScan(tuple.IntSchema(cols...), rows)
}

func TestMemScanAndDrain(t *testing.T) {
	s := mem("a,b", []int64{1, 2}, []int64{3, 4})
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][1] != 4 {
		t.Errorf("Drain = %v", got)
	}
}

func TestHeapScan(t *testing.T) {
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	got, err := Drain(NewHeapScan(heapFile(t, nil, tuple.IntSchema("x"), rows)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("scanned %d rows", len(got))
	}
}

// rowPred adapts a per-row test to a VecPredicate, so operator tests can
// state a filter one row at a time.
func rowPred(keep func([]int64) bool) VecPredicate {
	return func(b *tuple.Batch, in, out []int32) ([]int32, error) {
		row := make([]int64, len(b.Cols))
		test := func(phys int32) {
			for c := range b.Cols {
				row[c] = b.Cols[c].I[phys]
			}
			if keep(row) {
				out = append(out, phys)
			}
		}
		if in == nil {
			for phys := range b.NumPhysical() {
				test(int32(phys))
			}
		}
		for _, phys := range in {
			test(phys)
		}
		return out, nil
	}
}

// constExpr is the literal v as an Expr.
func constExpr(v int64) Expr {
	return func(b *tuple.Batch, sel []int32, out []int64) ([]int64, error) {
		for i := range out {
			out[i] = v
		}
		return out, nil
	}
}

func TestFilter(t *testing.T) {
	s := mem("v", []int64{1}, []int64{2}, []int64{3}, []int64{4})
	f := NewFilter(s, []VecPredicate{rowPred(func(tp []int64) bool { return tp[0]%2 == 0 })})
	got, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0] != 2 || got[1][0] != 4 {
		t.Errorf("Filter = %v", got)
	}
}

func TestProject(t *testing.T) {
	s := mem("a,b,c", []int64{1, 2, 3})
	p := NewProject(s, s.Schema().Project([]int{2, 0}), []Expr{ColExpr(2), ColExpr(0)})
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 3 || got[0][1] != 1 {
		t.Errorf("Project = %v", got)
	}
	if p.Schema().Names()[0] != "c" {
		t.Errorf("projected schema = %v", p.Schema().Names())
	}
}

func TestProjectWithConstAndError(t *testing.T) {
	s := mem("a", []int64{5})
	p := NewProject(s, tuple.IntSchema("a", "k"), []Expr{ColExpr(0), constExpr(42)})
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][1] != 42 {
		t.Errorf("const expression = %v", got)
	}
	boom := func(*tuple.Batch, []int32, []int64) ([]int64, error) { return nil, errBoom }
	bad := NewProject(mem("a", []int64{1}), tuple.IntSchema("x"), []Expr{boom})
	if _, err := Drain(bad); !errors.Is(err, errBoom) {
		t.Errorf("failing expression surfaced as %v", err)
	}
}

func TestSortOperatorInMemoryAndExternal(t *testing.T) {
	rows := [][]int64{{3}, {1}, {2}}
	for _, withPool := range []bool{false, true} {
		var pool *storage.Pool
		if withPool {
			pool = storage.NewPool(storage.NewMemStore(), 16)
		}
		s := NewSortKeys(mem("v", rows...), []SortKey{{Col: 0}}, pool, 16)
		got, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int64{1, 2, 3} {
			if got[i][0] != want {
				t.Errorf("withPool=%v: sorted[%d] = %v", withPool, i, got[i])
			}
		}
	}
}

func TestMergeJoinBasic(t *testing.T) {
	// SALES-style join: R1(tid, item) ⋈ SALES(tid, item) on tid with
	// residual right.item > left.item — the SETM extension step.
	left := mem("tid,item",
		[]int64{10, 1}, []int64{10, 2}, []int64{20, 1})
	right := mem("tid,item",
		[]int64{10, 1}, []int64{10, 2}, []int64{10, 3}, []int64{20, 1}, []int64{20, 4})
	j := NewMergeJoin(left, right, []int{0}, []int{0})
	j.SetVecResidualGT(1, 1)
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: (10,1)x(10,2),(10,3); (10,2)x(10,3); (20,1)x(20,4) = 4 rows.
	if len(got) != 4 {
		t.Fatalf("MergeJoin produced %d rows: %v", len(got), got)
	}
	want := [][4]int64{{10, 1, 10, 2}, {10, 1, 10, 3}, {10, 2, 10, 3}, {20, 1, 20, 4}}
	for i, w := range want {
		for c := 0; c < 4; c++ {
			if got[i][c] != w[c] {
				t.Errorf("row %d = %v, want %v", i, got[i], w)
			}
		}
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	left := mem("k,l", []int64{1, 100}, []int64{1, 101}, []int64{2, 102})
	right := mem("k,r", []int64{1, 200}, []int64{1, 201}, []int64{3, 202})
	j := NewMergeJoin(left, right, []int{0}, []int{0})
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // 2x2 for key 1
		t.Fatalf("many-to-many join = %d rows: %v", len(got), got)
	}
}

func TestMergeJoinDisjointKeys(t *testing.T) {
	left := mem("k", []int64{1}, []int64{3}, []int64{5})
	right := mem("k", []int64{2}, []int64{4}, []int64{6})
	j := NewMergeJoin(left, right, []int{0}, []int{0})
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("disjoint join = %v", got)
	}
}

func TestMergeJoinEmptyInputs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		left, right [][]int64
	}{
		{"both empty", nil, nil},
		{"left empty", nil, [][]int64{{1}}},
		{"right empty", [][]int64{{1}}, nil},
	} {
		j := NewMergeJoin(mem("k", tc.left...), mem("k", tc.right...), []int{0}, []int{0})
		got, err := Drain(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != 0 {
			t.Errorf("%s: got %v", tc.name, got)
		}
	}
}

func TestMergeJoinMatchesNestedLoop(t *testing.T) {
	// Property: on random sorted inputs, merge join == the nested-loop
	// reference.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		var lrows, rrows [][]int64
		for i := 0; i < rng.Intn(40); i++ {
			lrows = append(lrows, []int64{rng.Int63n(10), rng.Int63n(5)})
		}
		for i := 0; i < rng.Intn(40); i++ {
			rrows = append(rrows, []int64{rng.Int63n(10), rng.Int63n(5)})
		}
		byKey := func(rows [][]int64) {
			sort.SliceStable(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
		}
		byKey(lrows)
		byKey(rrows)

		mj := NewMergeJoin(mem("k,v", lrows...), mem("k,v", rrows...), []int{0}, []int{0})
		mjRows, err := Drain(mj)
		if err != nil {
			t.Fatal(err)
		}
		nlRows := refEquiJoin(lrows, rrows, []int{0}, []int{0})
		if len(mjRows) != len(nlRows) {
			t.Fatalf("trial %d: merge=%d nested=%d", trial, len(mjRows), len(nlRows))
		}
		canon := func(rows [][]int64) {
			sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
		}
		canon(mjRows)
		canon(nlRows)
		for i := range mjRows {
			if !slices.Equal(mjRows[i], nlRows[i]) {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, mjRows[i], nlRows[i])
			}
		}
	}
}

func TestSortGroupCount(t *testing.T) {
	// Count items, HAVING-style filtering applied downstream.
	s := mem("item", []int64{1}, []int64{1}, []int64{1}, []int64{2}, []int64{3}, []int64{3})
	g := NewSortGroup(s, []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{1: 3, 2: 1, 3: 2}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for _, row := range got {
		if want[row[0]] != row[1] {
			t.Errorf("count(%d) = %d, want %d", row[0], row[1], want[row[0]])
		}
	}
}

func TestSortGroupMultiKeyAndAggs(t *testing.T) {
	s := mem("a,b,v",
		[]int64{1, 1, 5}, []int64{1, 1, 7}, []int64{1, 2, 1}, []int64{2, 1, 9})
	g := NewSortGroup(s, []int{0, 1}, []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Col: 2, Name: "sum"},
		{Kind: AggMin, Col: 2, Name: "min"},
		{Kind: AggMax, Col: 2, Name: "max"},
	})
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("groups = %v", got)
	}
	// First group (1,1): count 2, sum 12, min 5, max 7.
	r := got[0]
	if r[2] != 2 || r[3] != 12 || r[4] != 5 || r[5] != 7 {
		t.Errorf("group (1,1) = %v", r)
	}
}

func TestSortGroupEmptyInput(t *testing.T) {
	g := NewSortGroup(mem("a"), []int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty group = %v", got)
	}
}

// TestMaterialize: a sort given a pool materializes its input as heap-file
// runs, merges them (xsort.MergeFiles) and streams the merged file back,
// leaving nothing pinned.
func TestMaterialize(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 16)
	s := mem("a,b", []int64{3, 4}, []int64{1, 2})
	rows, err := Drain(NewSortKeys(s, []SortKey{{Col: 0}}, pool, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != 1 || rows[1][0] != 3 {
		t.Errorf("materialized sort = %v", rows)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
}

func TestPipelineComposition(t *testing.T) {
	// sort -> group count over random data with duplicates.
	rng := rand.New(rand.NewSource(11))
	var rows [][]int64
	for i := 0; i < 1000; i++ {
		rows = append(rows, []int64{rng.Int63n(20)})
	}
	p := NewSortGroup(
		NewSortKeys(mem("v", rows...), []SortKey{{Col: 0}}, nil, 0),
		[]int{0}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 1; i < len(got); i++ {
		if got[i-1][0] >= got[i][0] {
			t.Fatal("group keys not ascending")
		}
	}
	for _, r := range got {
		total += r[1]
	}
	if total != 1000 {
		t.Errorf("counts sum to %d, want 1000", total)
	}
}
