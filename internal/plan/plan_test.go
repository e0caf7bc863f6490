package plan

import (
	"slices"
	"strings"
	"testing"

	"setm/internal/catalog"
	"setm/internal/exec"
	"setm/internal/sqlparse"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// fixture builds a catalog with sales(trans_id, item) and c1(item1, cnt).
func fixture(t *testing.T) (*Compiler, *catalog.Catalog) {
	t.Helper()
	pool := storage.NewPool(storage.NewMemStore(), 64)
	cat := catalog.New(pool)
	sales, err := cat.Create("sales", tuple.IntSchema("trans_id", "item"))
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, sales.File, [][]int64{
		{10, 1}, {10, 2}, {10, 3},
		{20, 1}, {20, 2},
		{30, 2}, {30, 3},
	}...)
	c1, err := cat.Create("c1", tuple.IntSchema("item1", "cnt"))
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, c1.File, [][]int64{{1, 2}, {2, 3}, {3, 2}}...)
	return NewCompiler(cat, pool, Params{"minsupport": 2}), cat
}

func compile(t *testing.T, c *Compiler, sql string) exec.Operator {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := c.CompilePlan(st.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	return pl.Root
}

func drain(t *testing.T, op exec.Operator) [][]int64 {
	t.Helper()
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPlanChoosesKeyedJoinForEquiJoin(t *testing.T) {
	c, _ := fixture(t)
	op := compile(t, c, `SELECT p.item, q.item FROM sales p, sales q
	                     WHERE p.trans_id = q.trans_id AND q.item > p.item`)
	// An equi-join must compile to a keyed physical join (merge-scan or
	// hash, whichever the cost model prices lower), never a nested loop.
	if !containsOperator(op, func(o exec.Operator) bool {
		switch o.(type) {
		case *exec.MergeJoin, *exec.HashJoin:
			return true
		}
		return false
	}) {
		t.Error("equi-join compiled without a keyed join")
	}
	rows := drain(t, op)
	// Pairs with item2 > item1 per transaction: tx10 gives 3, tx20 gives
	// 1, tx30 gives 1.
	if len(rows) != 5 {
		t.Errorf("pair rows = %d, want 5", len(rows))
	}
}

// TestPlanSortedInputsChooseMergeJoin pins the cost model's key decision:
// when both inputs are already ordered on the join keys (SETM's steady
// state — R_{k-1} and SALES both sorted by trans_id), the merge-scan join
// is free of sorts and must win over hashing, with no Sort operator in
// the plan.
func TestPlanSortedInputsChooseMergeJoin(t *testing.T) {
	c, cat := fixture(t)
	for _, name := range []string{"sales"} {
		tbl, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.OrderedBy = []int{0, 1} // fixture rows are sorted by (trans_id, item)
	}
	op := compile(t, c, `SELECT p.item, q.item FROM sales p, sales q
	                     WHERE p.trans_id = q.trans_id AND q.item > p.item`)
	foundMerge := false
	walkPlan(op, func(o exec.Operator) {
		switch o.(type) {
		case *exec.MergeJoin:
			foundMerge = true
		case *exec.Sort:
			t.Error("plan contains a Sort despite pre-sorted inputs")
		}
	})
	if !foundMerge {
		t.Errorf("sorted inputs did not choose a merge join:\n%s", exec.Explain(op))
	}
	if rows := drain(t, op); len(rows) != 5 {
		t.Errorf("pair rows = %d, want 5", len(rows))
	}
}

// TestPlanSmallBuildSideChoosesHashJoin pins the other side of the
// decision: a large unsorted probe side against a small build side (the
// R'_k ⋈ C_k support-filter join) must hash rather than sort the large
// input.
func TestPlanSmallBuildSideChoosesHashJoin(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 64)
	cat := catalog.New(pool)
	big, err := cat.Create("big", tuple.IntSchema("tid", "item"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		appendRows(t, big.File, []int64{int64(i), int64(i % 7)})
	}
	small, err := cat.Create("small", tuple.IntSchema("item", "cnt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendRows(t, small.File, []int64{int64(i), 1})
	}
	c := NewCompiler(cat, pool, nil)
	op := compile(t, c, `SELECT b.tid FROM big b, small s WHERE b.item = s.item`)
	foundHash := false
	walkPlan(op, func(o exec.Operator) {
		if _, ok := o.(*exec.HashJoin); ok {
			foundHash = true
		}
	})
	if !foundHash {
		t.Errorf("small build side did not choose a hash join:\n%s", exec.Explain(op))
	}
}

// TestMergeJoinOrderingNotOverclaimed is the regression test for an
// ordering-propagation unsoundness: when the left input's ordering does
// not cover every left column, duplicate-on-the-ordering left rows each
// replay the full right group, so the join output is NOT ordered by right
// columns and a downstream ORDER BY on them must still sort.
func TestMergeJoinOrderingNotOverclaimed(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 64)
	cat := catalog.New(pool)
	l, err := cat.Create("l", tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l.File, [][]int64{{1, 5}, {1, 3}}...)
	l.OrderedBy = []int{0} // sorted by a only; b breaks ties arbitrarily
	r, err := cat.Create("r", tuple.IntSchema("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, r.File, [][]int64{{1, 1}, {1, 2}}...)
	r.OrderedBy = []int{0, 1}
	c := NewCompiler(cat, pool, nil)
	op := compile(t, c, `SELECT p.a, p.b, q.c FROM l p, r q
	                     WHERE p.a = q.a ORDER BY p.a, q.c`)
	rows := drain(t, op)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][2] > rows[i][2] {
			t.Fatalf("ORDER BY p.a, q.c violated: %v before %v", rows[i-1], rows[i])
		}
	}
}

// TestMergeJoinOrderingDuplicateLeftRows extends the regression: even
// with the left ordering covering every left column, duplicate left rows
// (legal — SQL bags) replay the right group, so the output is not ordered
// by right columns and the ORDER BY must still sort.
func TestMergeJoinOrderingDuplicateLeftRows(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 64)
	cat := catalog.New(pool)
	l, err := cat.Create("l", tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l.File, [][]int64{{1, 5}, {1, 5}}...)
	l.OrderedBy = []int{0, 1}
	r, err := cat.Create("r", tuple.IntSchema("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, r.File, [][]int64{{1, 1}, {1, 2}}...)
	r.OrderedBy = []int{0, 1}
	c := NewCompiler(cat, pool, nil)
	op := compile(t, c, `SELECT p.a, p.b, q.c FROM l p, r q
	                     WHERE p.a = q.a ORDER BY p.a, p.b, q.c`)
	rows := drain(t, op)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if slices.Compare(rows[i-1], rows[i]) > 0 {
			t.Fatalf("ORDER BY violated: %v before %v", rows[i-1], rows[i])
		}
	}
}

// TestDescendingSortClaimsNoAscendingOrdering is the regression test for
// the DESC ordering-claim bug: a plan sorted descending must not be
// treated as ascending-ordered downstream.
func TestDescendingSortClaimsNoAscendingOrdering(t *testing.T) {
	c, _ := fixture(t)
	st, err := sqlparse.Parse("SELECT s.item FROM sales s ORDER BY s.item DESC")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CompilePlan(st.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ordering) != 0 {
		t.Fatalf("DESC sort claimed ascending ordering %v", p.Ordering)
	}
}

// TestCompilePlanAnnotations checks that the plan carries cost-model
// notes for EXPLAIN and a root estimate.
func TestCompilePlanAnnotations(t *testing.T) {
	c, _ := fixture(t)
	st, err := sqlparse.Parse(`SELECT p.item, q.item FROM sales p, sales q
	                           WHERE p.trans_id = q.trans_id`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CompilePlan(st.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	if !strings.Contains(out, "cost-based") {
		t.Errorf("plan lacks cost annotations:\n%s", out)
	}
	if p.Est.Rows <= 0 {
		t.Errorf("root estimate = %+v", p.Est)
	}
}

// walkPlan visits every operator of the tree, parents first.
func walkPlan(op exec.Operator, visit func(exec.Operator)) {
	visit(op)
	for _, c := range exec.Children(op) {
		walkPlan(c, visit)
	}
}

// TestPlanRefusesCrossProduct: a table no column equality links to the
// tables before it is an error naming it, with or without other conditions.
func TestPlanRefusesCrossProduct(t *testing.T) {
	c, _ := fixture(t)
	for _, q := range []string{
		`SELECT p.item FROM sales p, sales q WHERE p.item < q.item`,
		`SELECT p.item FROM sales p, sales q`,
		`SELECT p.item FROM sales p, c1 c, sales q WHERE p.item = c.item1 AND c.cnt > q.item`,
	} {
		st, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		const want = "plan: no equi-join condition links q to the tables before it"
		if _, err := c.CompilePlan(st.(*sqlparse.Select)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", q, err, want)
		}
	}
}

// containsOperator reports whether any operator of the tree matches.
func containsOperator(op exec.Operator, match func(exec.Operator) bool) bool {
	found := false
	walkPlan(op, func(o exec.Operator) { found = found || match(o) })
	return found
}

func TestPredicatePushdown(t *testing.T) {
	// Single-table predicates must work when combined with joins, and the
	// result must match the unpushed semantics.
	c, _ := fixture(t)
	op := compile(t, c, `SELECT p.trans_id FROM sales p, c1 c
	                     WHERE p.item = c.item1 AND c.cnt >= 3 AND p.trans_id >= 20`)
	rows := drain(t, op)
	// c.cnt >= 3 keeps only item 2; p.trans_id >= 20 keeps tx 20 and 30:
	// sales rows (20,2) and (30,2) → 2 rows.
	if len(rows) != 2 {
		t.Errorf("rows = %v, want 2", rows)
	}
}

func TestParamCompilation(t *testing.T) {
	c, _ := fixture(t)
	op := compile(t, c, `SELECT s.item, COUNT(*) FROM sales s
	                     GROUP BY s.item HAVING COUNT(*) >= :minsupport
	                     ORDER BY s.item`)
	rows := drain(t, op)
	// minsupport = 2: items 1 (2), 2 (3), 3 (2) all qualify.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[1][1] != 3 {
		t.Errorf("count(2) = %v", rows[1])
	}
}

func TestMissingParamFails(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 8)
	cat := catalog.New(pool)
	if _, err := cat.Create("t", tuple.IntSchema("a")); err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(cat, pool, nil)
	st, _ := sqlparse.Parse("SELECT t.a FROM t WHERE t.a >= :missing")
	if _, err := c.CompilePlan(st.(*sqlparse.Select)); err == nil {
		t.Error("missing parameter accepted")
	} else if !strings.Contains(err.Error(), "missing") {
		t.Errorf("error = %v", err)
	}
}

func TestGroupByNonColumnRejected(t *testing.T) {
	c, _ := fixture(t)
	st, _ := sqlparse.Parse("SELECT COUNT(*) FROM sales s GROUP BY s.item + 1")
	if _, err := c.CompilePlan(st.(*sqlparse.Select)); err == nil {
		t.Error("GROUP BY expression accepted")
	}
}

func TestAggregateOutsideGroupRejected(t *testing.T) {
	c, _ := fixture(t)
	st, _ := sqlparse.Parse("SELECT s.item FROM sales s WHERE COUNT(*) > 1")
	if _, err := c.CompilePlan(st.(*sqlparse.Select)); err == nil {
		t.Error("aggregate in WHERE accepted")
	}
}

func TestResolveColumnRules(t *testing.T) {
	s := tuple.NewSchema(
		tuple.Column{Name: "p.trans_id", Kind: tuple.KindInt},
		tuple.Column{Name: "p.item", Kind: tuple.KindInt},
		tuple.Column{Name: "q.item", Kind: tuple.KindInt},
	)
	// Qualified exact match.
	if idx, err := resolveColumn(s, &sqlparse.ColumnRef{Qualifier: "q", Name: "item"}); err != nil || idx != 2 {
		t.Errorf("q.item = %d, %v", idx, err)
	}
	// Unqualified unique suffix.
	if idx, err := resolveColumn(s, &sqlparse.ColumnRef{Name: "trans_id"}); err != nil || idx != 0 {
		t.Errorf("trans_id = %d, %v", idx, err)
	}
	// Unqualified ambiguous.
	if _, err := resolveColumn(s, &sqlparse.ColumnRef{Name: "item"}); err == nil {
		t.Error("ambiguous item accepted")
	}
	// Unknown.
	if _, err := resolveColumn(s, &sqlparse.ColumnRef{Name: "nope"}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := resolveColumn(s, &sqlparse.ColumnRef{Qualifier: "z", Name: "item"}); err == nil {
		t.Error("unknown qualifier accepted")
	}
}

func TestOrderByDescending(t *testing.T) {
	c, _ := fixture(t)
	op := compile(t, c, "SELECT s.item FROM sales s ORDER BY s.item DESC")
	rows := drain(t, op)
	if len(rows) != 7 || rows[0][0] != 3 || rows[6][0] != 1 {
		t.Errorf("items descending = %v", rows)
	}
}

// TestSortBudgetUsesPackedRowBytes pins the external-vs-in-memory sort
// decision to the real packed width of all-integer rows (8 bytes per
// column, no record prefix) rather than the heap-encoded estimate: a
// budget that fits the packed bytes but not the heap bytes must still
// plan an in-memory sort.
func TestSortBudgetUsesPackedRowBytes(t *testing.T) {
	c, _ := fixture(t)
	// sales has 7 rows of 2 int columns: packed 7×16 = 112 bytes, heap
	// estimate 7×18 = 126 bytes. A budget between them discriminates.
	c.MemBudget = 120
	op := compile(t, c, "SELECT trans_id, item FROM sales ORDER BY item, trans_id;")
	plan := exec.ExplainAnnotated(op, func(o exec.Operator) string { return c.notes[o] })
	if strings.Contains(plan, "external") {
		t.Fatalf("packed bytes fit the budget; plan chose an external sort:\n%s", plan)
	}
	if !strings.Contains(plan, "in-memory") {
		t.Fatalf("expected an in-memory sort note:\n%s", plan)
	}

	// Below the packed bytes the sort must go external.
	c2, _ := fixture(t)
	c2.MemBudget = 100
	op2 := compile(t, c2, "SELECT trans_id, item FROM sales ORDER BY item, trans_id;")
	plan2 := exec.ExplainAnnotated(op2, func(o exec.Operator) string { return c2.notes[o] })
	if !strings.Contains(plan2, "external") {
		t.Fatalf("packed bytes exceed the budget; plan kept the sort in memory:\n%s", plan2)
	}
}

// TestPlannerExternalSortRunSize pins the one budget the planner has: a
// sort whose input outgrows MemBudget goes external, builds its runs in
// exactly that budget — the page allocations are those of a hand-built
// sort with that run size, not of the default's single run — and returns
// what the in-memory plan returns.
func TestPlannerExternalSortRunSize(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 64)
	cat := catalog.New(pool)
	tbl, err := cat.Create("t", tuple.IntSchema("k", "seq"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000 // 320,000 packed bytes
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i * 7919 % 1000), int64(i)}
	}
	appendRows(t, tbl.File, rows...)
	const query = "SELECT k, seq FROM t ORDER BY k"
	const budget = 32 << 10
	allocs := func(op exec.Operator) ([][]int64, int64) {
		before := pool.Stats.Allocs
		rows := drain(t, op)
		return rows, pool.Stats.Allocs - before
	}

	inMem := NewCompiler(cat, pool, nil)
	want := drain(t, compile(t, inMem, query))
	if len(want) != n {
		t.Fatalf("in-memory plan returned %d rows, want %d", len(want), n)
	}

	c := NewCompiler(cat, pool, nil)
	c.MemBudget = budget
	op := compile(t, c, query)
	if text := exec.Explain(op); !strings.Contains(text, "(external)") {
		t.Fatalf("a %d-byte budget under a %d-byte input kept the sort in memory:\n%s", budget, n*16, text)
	}
	got, planned := allocs(op)
	if len(got) != len(want) {
		t.Fatalf("external plan returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("row %d = %v, in-memory plan has %v", i, got[i], want[i])
		}
	}

	keys := []exec.SortKey{{Col: 0}}
	_, atBudget := allocs(exec.NewSortKeys(exec.NewHeapScan(tbl.File), keys, pool, budget))
	_, atDefault := allocs(exec.NewSortKeys(exec.NewHeapScan(tbl.File), keys, pool, 0))
	if planned != atBudget || planned == atDefault {
		t.Errorf("planned sort allocated %d pages; %d-byte runs allocate %d, default runs %d",
			planned, budget, atBudget, atDefault)
	}
}
