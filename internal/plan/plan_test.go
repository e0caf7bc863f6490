package plan

import (
	"fmt"
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
	// hash, whichever the shape rule picks), never a nested loop.
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

// TestPlanRule pins every branch of the planner's shape rule. Joins:
// merge-scan with no sort when both inputs are ordered on the keys (SETM's
// extension, R_{k-1} ⋈ SALES on trans_id); else hash when the build side
// fits the budget (the R'_k ⋈ C_k filter); else sorts and a merge-scan.
// Groups: a grouped scan with no sort over an input ordered on the group
// columns; else hash when the estimated groups fit; else a sort and the
// grouped scan. An empty unordered input hashes: 0 bytes fit any budget.
func TestPlanRule(t *testing.T) {
	cases := []struct {
		name    string
		sql     string
		ordered map[string][]int // tables' OrderedBy, set before planning
		budget  int64            // Compiler.MemBudget; 0 = the default
		op      string           // the join or group operator the rule picks
		note    string           // what its EXPLAIN note must contain
		sorts   int              // Sort operators in the plan
		rows    int              // result rows
	}{
		{"both-ordered-merge", `SELECT p.item, q.item FROM sales p, sales q
		  WHERE p.trans_id = q.trans_id AND q.item > p.item`,
			map[string][]int{"sales": {0, 1}}, 0,
			"MergeJoin", "merge-scan: both inputs ordered on [0]; residual R[1]>L[1] pushed down", 0, 5},
		{"small-build-hash", `SELECT b.tid FROM big b, small s WHERE b.item = s.item`,
			nil, 0, "HashJoin", "hash: build 3 rows fits budget", 0, 2144},
		{"build-over-budget-sort-merge", `SELECT p.item, q.item FROM sales p, sales q
		  WHERE p.trans_id = q.trans_id AND q.item > p.item`,
			nil, 100, "MergeJoin", "merge-scan: build 112 bytes over budget 100", 2, 5},
		{"ordered-group-sortgroup", `SELECT c.item1, COUNT(*) FROM c1 c GROUP BY c.item1`,
			map[string][]int{"c1": {0}}, 0, "SortGroup", "sort-group: input ordered on [0]", 0, 3},
		{"groups-fit-hash", `SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item`,
			nil, 0, "HashGroup", "hash: est 1 groups from 7 rows fit budget", 0, 3},
		{"groups-over-budget-sort", `SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item`,
			nil, 8, "SortGroup", "sort-group: est 1 groups (16 bytes) over budget 8", 1, 3},
		{"empty-join-hash", `SELECT p.tid FROM empty p, c1 q WHERE p.item = q.item1`,
			map[string][]int{"c1": {0}}, 0, "HashJoin", "hash: build 3 rows fits budget", 0, 0},
		{"empty-group-hash", `SELECT p.item, COUNT(*) FROM empty p GROUP BY p.item`,
			nil, 0, "HashGroup", "hash: est 1 groups from 0 rows fit budget", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, cat := fixture(t)
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
			appendRows(t, small.File, [][]int64{{0, 1}, {1, 1}, {2, 1}}...)
			if _, err := cat.Create("empty", tuple.IntSchema("tid", "item")); err != nil {
				t.Fatal(err)
			}
			for name, cols := range tc.ordered {
				tbl, err := cat.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				tbl.OrderedBy = cols // the fixture's rows are stored in that order
			}
			c.MemBudget = tc.budget
			st, err := sqlparse.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := c.CompilePlan(st.(*sqlparse.Select))
			if err != nil {
				t.Fatal(err)
			}
			var chosen exec.Operator
			sorts := 0
			walkPlan(pl.Root, func(o exec.Operator) {
				switch o.(type) {
				case *exec.MergeJoin, *exec.HashJoin, *exec.SortGroup, *exec.HashGroup:
					chosen = o
				case *exec.Sort:
					sorts++
				}
			})
			if got := strings.TrimPrefix(fmt.Sprintf("%T", chosen), "*exec."); got != tc.op {
				t.Fatalf("rule chose %s, want %s:\n%s", got, tc.op, pl.Explain())
			}
			if note := pl.Note(chosen); !strings.Contains(note, tc.note) {
				t.Errorf("%s note %q lacks %q", tc.op, note, tc.note)
			}
			if sorts != tc.sorts {
				t.Errorf("%d sorts, want %d:\n%s", sorts, tc.sorts, pl.Explain())
			}
			if rows := drain(t, pl.Root); len(rows) != tc.rows {
				t.Errorf("%d rows, want %d", len(rows), tc.rows)
			}
		})
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

// TestCompilePlanAnnotations checks that the plan names the rule behind
// its join in the EXPLAIN notes and carries a root estimate: two unordered
// inputs whose 7-row build side fits the default budget hash.
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
	if !strings.Contains(out, "HashJoin on [0] = [0] (build right)  -- hash: build 7 rows fits budget; est 7 rows") {
		t.Errorf("plan lacks the hash rule's note:\n%s", out)
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
