package engine

import (
	"slices"
	"strings"
	"testing"

	"setm/internal/tuple"
)

func setupSales(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE sales (trans_id INT, item INT)", nil)
	// The paper's Figure 1 example: 10 transactions, 3 items each.
	// Items: A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8.
	tx := [][3]int64{
		{1, 2, 3}, // 10: A B C
		{1, 2, 4}, // 20: A B D
		{1, 2, 3}, // 30: A B C
		{2, 3, 4}, // 40: B C D
		{1, 3, 7}, // 50: A C G
		{1, 4, 7}, // 60: A D G
		{1, 5, 8}, // 70: A E H
		{4, 5, 6}, // 80: D E F
		{4, 5, 6}, // 90: D E F
		{4, 5, 6}, // 99: D E F
	}
	ids := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 99}
	for i, items := range tx {
		for _, it := range items {
			if _, err := db.Exec("INSERT INTO sales VALUES (:tid, :item)",
				map[string]int64{"tid": ids[i], "item": it}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// loadRows installs rows as table name through LoadTableBatch.
func loadRows(t testing.TB, db *DB, name string, schema *tuple.Schema, rows [][]int64) {
	t.Helper()
	b := tuple.NewBatch(schema)
	for _, r := range rows {
		for c, v := range r {
			b.Cols[c].I = append(b.Cols[c].I, v)
		}
		b.BumpRow()
	}
	if err := db.LoadTableBatch(name, schema, b, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	r := db.MustExec("INSERT INTO t VALUES (1, 2), (3, 4)", nil)
	if r.RowsAffected != 2 {
		t.Errorf("RowsAffected = %d", r.RowsAffected)
	}
	res := db.MustExec("SELECT a, b FROM t ORDER BY a DESC", nil)
	got := res.Rows
	if len(got) != 2 || got[0][0] != 3 || got[1][1] != 2 {
		t.Errorf("rows = %v", got)
	}
	if res.Schema.Names()[0] != "a" {
		t.Errorf("schema = %v", res.Schema.Names())
	}
}

// TestInsertSelectFromItself: INSERT INTO t SELECT … FROM t inserts the
// rows t held when the statement began, also when a batch of the scan
// ends part-way into the page the insert is filling.
func TestInsertSelectFromItself(t *testing.T) {
	for _, n := range []int{1120, 3000} {
		db := New()
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i), int64(n - i)}
		}
		loadRows(t, db, "t", tuple.IntSchema("a", "b"), rows)
		if r := db.MustExec("INSERT INTO t SELECT t.a, t.b FROM t", nil); r.RowsAffected != int64(n) {
			t.Errorf("%d rows: RowsAffected = %d, want %d", n, r.RowsAffected, n)
		}
		got := db.MustExec("SELECT a, b FROM t", nil).Rows
		if !slices.EqualFunc(got, slices.Concat(rows, rows), slices.Equal) {
			t.Errorf("%d rows: t holds %d rows after the insert, want the %d loaded twice", n, len(got), n)
		}
	}
}

func TestPaperC1Query(t *testing.T) {
	// The paper's C_1 query (Section 3.1) against the Figure 1 data; with
	// minsupport = 3 the counts must match relation C1 of Figure 1:
	// A:6 B:4 C:4 D:6 E:4 F:3 (G:2, H:1 fall below). The rule confidences
	// in Section 5 pin these down: |AB|/|A| = 3/6 and |DE|/|D| = 3/6 = 50%.
	db := setupSales(t)
	db.MustExec("CREATE TABLE c1 (item INT, cnt INT)", nil)
	db.MustExec(`INSERT INTO c1
	             SELECT r1.item, COUNT(*)
	             FROM sales r1
	             GROUP BY r1.item
	             HAVING COUNT(*) >= :minsupport`,
		map[string]int64{"minsupport": 3})
	res := db.MustExec("SELECT item, cnt FROM c1 ORDER BY item", nil)
	want := [][2]int64{{1, 6}, {2, 4}, {3, 4}, {4, 6}, {5, 4}, {6, 3}}
	if len(res.Rows) != len(want) {
		t.Fatalf("C1 = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0] != w[0] || res.Rows[i][1] != w[1] {
			t.Errorf("C1[%d] = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestPaperPairQuery(t *testing.T) {
	// Section 2's pair-generation self-join with lexicographic ordering
	// (r2.item > r1.item instead of <>, per Section 3.1).
	db := setupSales(t)
	res := db.MustExec(`SELECT r1.item, r2.item, COUNT(*)
	                    FROM sales r1, sales r2
	                    WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
	                    GROUP BY r1.item, r2.item
	                    HAVING COUNT(*) >= :minsupport
	                    ORDER BY r1.item, r2.item`,
		map[string]int64{"minsupport": 3})
	// Figure 2's C2: AB:3 AC:3 BC:3 DE:3 DF:3 EF:3.
	want := [][3]int64{{1, 2, 3}, {1, 3, 3}, {2, 3, 3}, {4, 5, 3}, {4, 6, 3}, {5, 6, 3}}
	got := res.Rows
	if len(got) != len(want) {
		t.Fatalf("C2 = %v", got)
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if got[i][j] != w[j] {
				t.Errorf("C2[%d] = %v, want %v", i, got[i], w)
			}
		}
	}
}

func TestMergeJoinChosenForEquiJoin(t *testing.T) {
	// Join correctness across tables with differing cardinalities.
	db := New()
	db.MustExec("CREATE TABLE l (k INT, v INT)", nil)
	db.MustExec("CREATE TABLE r (k INT, w INT)", nil)
	db.MustExec("INSERT INTO l VALUES (1, 10), (1, 11), (2, 20), (3, 30)", nil)
	db.MustExec("INSERT INTO r VALUES (1, 100), (2, 200), (2, 201), (4, 400)", nil)
	res := db.MustExec(`SELECT l.v, r.w FROM l, r WHERE l.k = r.k ORDER BY l.v, r.w`, nil)
	want := [][2]int64{{10, 100}, {11, 100}, {20, 200}, {20, 201}}
	got := res.Rows
	if len(got) != len(want) {
		t.Fatalf("join = %v", got)
	}
	for i, w := range want {
		if got[i][0] != w[0] || got[i][1] != w[1] {
			t.Errorf("row %d = %v, want %v", i, got[i], w)
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	// The nested-loop C_k query shape: C_{k-1} x SALES x SALES.
	db := setupSales(t)
	db.MustExec("CREATE TABLE c1 (item INT, cnt INT)", nil)
	db.MustExec(`INSERT INTO c1 SELECT r1.item, COUNT(*) FROM sales r1
	             GROUP BY r1.item HAVING COUNT(*) >= 3`, nil)
	res := db.MustExec(`SELECT r1.item, r2.item, COUNT(*)
	                    FROM c1 c, sales r1, sales r2
	                    WHERE r1.item = c.item AND
	                          r1.trans_id = r2.trans_id AND
	                          r2.item > r1.item
	                    GROUP BY r1.item, r2.item
	                    HAVING COUNT(*) >= 3
	                    ORDER BY r1.item, r2.item`, nil)
	// Same C2 as before: all first items are frequent in this data set.
	if len(res.Rows) != 6 {
		t.Fatalf("three-way join C2 = %v", res.Rows)
	}
}

// execError runs sql, which must fail with exactly want.
func execError(t *testing.T, db *DB, sql, want string) {
	t.Helper()
	if _, err := db.Exec(sql, nil); err == nil || err.Error() != want {
		t.Errorf("Exec(%q) error = %v, want %q", sql, err, want)
	}
}

func TestSelectStarAndLimit(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	db.MustExec("INSERT INTO t VALUES (5, 6), (1, 2), (3, 4)", nil)
	res := db.MustExec("SELECT * FROM t ORDER BY a", nil)
	if got := res.Rows; len(got) != 3 || got[0][0] != 1 || got[2][1] != 6 {
		t.Fatalf("rows = %v", got)
	}
	if res.Schema.Names()[0] != "a" || res.Schema.Names()[1] != "b" {
		t.Errorf("star schema = %v", res.Schema.Names())
	}
	execError(t, db, "SELECT * FROM t ORDER BY a LIMIT 2", "sql:1:28: unexpected LIMIT after statement")
}

func TestDistinct(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	db.MustExec("INSERT INTO t VALUES (2), (1), (2)", nil)
	execError(t, db, "SELECT DISTINCT a FROM t", "sql:1:8: expected expression, found DISTINCT")
	// GROUP BY is how the engine deduplicates.
	res := db.MustExec("SELECT a FROM t GROUP BY a", nil)
	if got := res.Rows; len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Errorf("grouped = %v", got)
	}
}

func TestGlobalCount(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	res := db.MustExec("SELECT COUNT(*) FROM t", nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 {
		t.Errorf("count over empty = %v", res.Rows)
	}
	db.MustExec("INSERT INTO t VALUES (1), (2), (3)", nil)
	res = db.MustExec("SELECT COUNT(*) FROM t", nil)
	if res.Rows[0][0] != 3 {
		t.Errorf("count = %v", res.Rows)
	}
}

func TestSumMinMax(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (g INT, v INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1, 5), (1, 7), (2, 3)", nil)
	res := db.MustExec("SELECT g, SUM(v), MIN(v), MAX(v) FROM t GROUP BY g ORDER BY g", nil)
	got := res.Rows
	if got[0][1] != 12 || got[0][2] != 5 || got[0][3] != 7 || got[1][1] != 3 {
		t.Errorf("aggregates = %v", got)
	}
}

func TestDeleteAllAndDrop(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1)", nil)
	db.MustExec("DELETE FROM t", nil)
	res := db.MustExec("SELECT a FROM t", nil)
	if len(res.Rows) != 0 {
		t.Errorf("rows after DELETE = %v", res.Rows)
	}
	db.MustExec("DROP TABLE t", nil)
	if _, err := db.Exec("SELECT a FROM t", nil); err == nil {
		t.Error("query of dropped table succeeded")
	}
	db.MustExec("DROP TABLE IF EXISTS t", nil) // no error
}

func TestDropReclaimsPages(t *testing.T) {
	// Dropping a table must return its pages to the pool's free list so
	// the store stops growing — the property that keeps MineSQL's memory
	// bounded while it drops consumed R'_k / R_{k-1} intermediates.
	db := New()
	fill := func(name string) {
		db.MustExec("CREATE TABLE "+name+" (a INT, b INT)", nil)
		for i := 0; i < 40; i++ {
			db.MustExec("INSERT INTO "+name+" VALUES (:i, :i)", map[string]int64{"i": int64(i)})
		}
	}
	fill("t0")
	db.MustExec("DROP TABLE t0", nil)
	base := db.Pool().Store().NumPages()
	for i := 1; i <= 5; i++ {
		fill("t")
		db.MustExec("DROP TABLE t", nil)
	}
	if got := db.Pool().Store().NumPages(); got > base {
		t.Errorf("store grew from %d to %d pages across create/drop cycles", base, got)
	}
}

func TestCreateIfNotExists(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	if _, err := db.Exec("CREATE TABLE t (a INT)", nil); err == nil {
		t.Error("duplicate CREATE succeeded")
	}
	db.MustExec("CREATE TABLE IF NOT EXISTS t (a INT)", nil)
}

func TestInsertSelectWithOrderBy(t *testing.T) {
	// SETM stores R_k sorted via INSERT ... SELECT ... ORDER BY; the engine
	// must preserve that order on scan.
	db := New()
	db.MustExec("CREATE TABLE src (a INT)", nil)
	db.MustExec("INSERT INTO src VALUES (3), (1), (2)", nil)
	db.MustExec("CREATE TABLE dst (a INT)", nil)
	db.MustExec("INSERT INTO dst SELECT src.a FROM src ORDER BY src.a", nil)
	res := db.MustExec("SELECT a FROM dst", nil)
	for i, want := range []int64{1, 2, 3} {
		if res.Rows[i][0] != want {
			t.Errorf("dst[%d] = %v", i, res.Rows[i])
		}
	}
}

func TestInsertSelectDescendingDoesNotClaimAscending(t *testing.T) {
	// Regression: a table filled via ORDER BY ... DESC must not record an
	// ascending ordering, or a later ascending ORDER BY would skip its
	// sort and return rows backwards.
	db := New()
	db.MustExec("CREATE TABLE src (a INT)", nil)
	db.MustExec("INSERT INTO src VALUES (1), (3), (2)", nil)
	db.MustExec("CREATE TABLE dst (a INT)", nil)
	db.MustExec("INSERT INTO dst SELECT src.a FROM src ORDER BY src.a DESC", nil)
	res := db.MustExec("SELECT a FROM dst ORDER BY a", nil)
	for i, want := range []int64{1, 2, 3} {
		if res.Rows[i][0] != want {
			t.Fatalf("ascending ORDER BY after DESC fill: row %d = %v", i, res.Rows[i])
		}
	}
}

// TestFailedInsertSelectDropsOrderingClaim: an INSERT ... SELECT that
// fails after some batches keeps the rows it had appended, so the target's
// ordering claim must already be gone.
func TestFailedInsertSelectDropsOrderingClaim(t *testing.T) {
	db := New()
	const n, bad = 5010, 2500 // the zero divisor sits in src's third batch
	var base, src [][]int64
	for i := int64(0); i < n; i++ {
		base = append(base, []int64{(i * 7919) % n}) // a permutation of 0..n-1
	}
	for i := int64(0); i < 3000; i++ {
		b := int64(1)
		if i == bad {
			b = 0
		}
		src = append(src, []int64{i, b})
	}
	loadRows(t, db, "base", tuple.IntSchema("a"), base)
	loadRows(t, db, "src", tuple.IntSchema("a", "b"), src)
	db.MustExec("CREATE TABLE t (a INT, q INT)", nil)
	db.MustExec("INSERT INTO t SELECT base.a, base.a FROM base ORDER BY base.a", nil)
	tbl, err := db.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.OrderedBy) != 1 || tbl.OrderedBy[0] != 0 {
		t.Fatalf("setup: t.OrderedBy = %v, want [0]", tbl.OrderedBy)
	}
	ordered, err := db.Prepare("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ordered.Exec(nil); err != nil { // caches the sort-skipping plan
		t.Fatal(err)
	}

	_, err = db.Exec("INSERT INTO t SELECT src.a, 10 / src.b FROM src", nil)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("INSERT over a zero divisor: %v", err)
	}
	if got := tbl.File.Rows(); got <= n {
		t.Fatalf("setup: the failed INSERT appended nothing (%d rows)", got)
	}
	if tbl.OrderedBy != nil {
		t.Errorf("t.OrderedBy = %v after a partial append", tbl.OrderedBy)
	}
	res, err := ordered.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Rows)) != tbl.File.Rows() {
		t.Fatalf("%d rows, table holds %d", len(res.Rows), tbl.File.Rows())
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0] > res.Rows[i][0] {
			t.Fatalf("ORDER BY a: row %d = %d after %d", i, res.Rows[i][0], res.Rows[i-1][0])
		}
	}
}

func TestErrors(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT a FROM missing", "no such table"},
		{"SELECT nope FROM t", "unknown column"},
		{"INSERT INTO t VALUES (1)", "arity"},
		{"INSERT INTO t SELECT t.a FROM t", "arity"},
		{"SELECT a FROM t WHERE a >= :p", "parameter"},
		{"SELECT t.a, u.a FROM t, t u WHERE a = 1", "ambiguous"},
	}
	for _, c := range cases {
		_, err := db.Exec(c.sql, nil)
		if err == nil {
			t.Errorf("Exec(%q) succeeded, want error containing %q", c.sql, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Exec(%q) error = %v, want substring %q", c.sql, err, c.want)
		}
	}
}

func TestExecScript(t *testing.T) {
	db := New()
	res, err := db.ExecScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2);
		SELECT COUNT(*) FROM t;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 2 {
		t.Errorf("script result = %v", res.Rows)
	}
}

func TestUnqualifiedColumnResolution(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20)", nil)
	res := db.MustExec("SELECT b FROM t WHERE a = 2", nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != 20 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestStringColumnsEndToEnd: no layer takes a string. The parser refuses
// the column type and the literal, and a bulk load of a column that is not
// INT is refused by the heap file; nothing is created.
func TestStringColumnsEndToEnd(t *testing.T) {
	db := New()
	execError(t, db, "CREATE TABLE items (id INT, name STRING)", "sql:1:34: expected column type, found STRING")
	execError(t, db, "CREATE TABLE items (id INT, name VARCHAR(10))", "sql:1:34: expected column type, found VARCHAR")
	db.MustExec("CREATE TABLE items (id INT, qty INT)", nil)
	execError(t, db, "INSERT INTO items VALUES (1, 'bread')", `sql:1:30: unexpected character '\''`)
	execError(t, db, "SELECT id FROM items WHERE qty = 'x'", `sql:1:34: unexpected character '\''`)
	s := tuple.NewSchema(tuple.Column{Name: "name", Kind: tuple.Kind(1)})
	if err := db.LoadTableBatch("names", s, tuple.NewBatch(s), nil); err == nil {
		t.Error("LoadTableBatch accepted a column that is not INT")
	}
	if db.Catalog().Has("names") {
		t.Error("a refused load left a table behind")
	}
	if got := db.MustExec("SELECT COUNT(*) FROM items", nil).Rows[0][0]; got != 0 {
		t.Errorf("items holds %d rows after refused inserts", got)
	}
}

// TestCrossJoinWithoutEquiPredicate: a table no column equality links to
// the tables before it is refused, in a SELECT, under EXPLAIN and in an
// INSERT ... SELECT, which then appends nothing.
func TestCrossJoinWithoutEquiPredicate(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE a (x INT)", nil)
	db.MustExec("CREATE TABLE b (y INT)", nil)
	db.MustExec("INSERT INTO a VALUES (1), (2)", nil)
	db.MustExec("INSERT INTO b VALUES (10), (20)", nil)
	const want = "plan: no equi-join condition links b to the tables before it"
	execError(t, db, "SELECT a.x, b.y FROM a, b WHERE a.x < b.y ORDER BY a.x, b.y", want)
	execError(t, db, "EXPLAIN SELECT a.x FROM a, b", want)
	execError(t, db, "INSERT INTO a SELECT b.y FROM a, b", want)
	if got := db.MustExec("SELECT COUNT(*) FROM a", nil).Rows[0][0]; got != 2 {
		t.Errorf("a holds %d rows, want 2", got)
	}
	// The same tables joined on a column equality plan a keyed join.
	db.MustExec("INSERT INTO a VALUES (20)", nil)
	res := db.MustExec("SELECT a.x, b.y FROM a, b WHERE b.y = a.x", nil)
	if got := res.Rows; len(got) != 1 || got[0][0] != 20 || got[0][1] != 20 {
		t.Errorf("equi-join = %v", got)
	}
}

func TestArithmeticInSelect(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	db.MustExec("INSERT INTO t VALUES (5)", nil)
	res := db.MustExec("SELECT a * 2 + 1 AS x FROM t", nil)
	if res.Rows[0][0] != 11 {
		t.Errorf("arith = %v", res.Rows)
	}
	if res.Schema.Names()[0] != "x" {
		t.Errorf("alias = %v", res.Schema.Names())
	}
}

func TestLoadTableFastPath(t *testing.T) {
	db := New()
	rows := [][]int64{{10, 1}, {10, 2}}
	loadRows(t, db, "sales", tuple.IntSchema("trans_id", "item"), rows)
	res := db.MustExec("SELECT COUNT(*) FROM sales", nil)
	if res.Rows[0][0] != 2 {
		t.Errorf("loaded rows = %v", res.Rows)
	}
}

func TestHavingWithoutGroupColumnInOutput(t *testing.T) {
	// HAVING on COUNT while projecting only the group key.
	db := New()
	db.MustExec("CREATE TABLE t (g INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1), (1), (2)", nil)
	res := db.MustExec("SELECT g FROM t GROUP BY g HAVING COUNT(*) >= 2", nil)
	if len(res.Rows) != 1 || res.Rows[0][0] != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExplainShowsRuleBasedPlan(t *testing.T) {
	// Unsorted inputs: neither side is known to be ordered and the build
	// side fits the budget, so the rule picks a hash join, and EXPLAIN
	// names the rule and the root estimate.
	db := setupSales(t)
	res := db.MustExec(`EXPLAIN SELECT r1.item, r2.item
	                    FROM sales r1, sales r2
	                    WHERE r1.trans_id = r2.trans_id`, nil)
	plan := res.Plan
	for _, want := range []string{"HashJoin", "hash: build 30 rows fits budget", "Project", "HeapScan", "\nestimated: 30 rows\n"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %s:\n%s", want, plan)
		}
	}
}

func TestExplainMergeJoinOnSortedTables(t *testing.T) {
	// SETM's steady state: both join inputs stored sorted by trans_id
	// (via INSERT ... SELECT ... ORDER BY). The planner must know the
	// ordering, choose the merge-scan join, and skip every sort.
	db := setupSales(t)
	db.MustExec("CREATE TABLE r1 (trans_id INT, item INT)", nil)
	db.MustExec(`INSERT INTO r1 SELECT s.trans_id, s.item FROM sales s
	             ORDER BY s.trans_id, s.item`, nil)
	db.MustExec("CREATE TABLE r2 (trans_id INT, item INT)", nil)
	db.MustExec(`INSERT INTO r2 SELECT s.trans_id, s.item FROM sales s
	             ORDER BY s.trans_id, s.item`, nil)
	res := db.MustExec(`EXPLAIN SELECT p.item, q.item FROM r1 p, r2 q
	                    WHERE q.trans_id = p.trans_id AND q.item > p.item`, nil)
	plan := res.Plan
	if !strings.Contains(plan, "MergeJoin") {
		t.Errorf("sorted tables did not plan a merge join:\n%s", plan)
	}
	if strings.Contains(plan, "Sort ") || strings.Contains(plan, "Sort\n") {
		t.Errorf("plan sorts pre-sorted inputs:\n%s", plan)
	}
	// The mining-style ORDER BY on the merge join's output ordering is
	// also free: check via a full query round trip.
	got := db.MustExec(`SELECT p.trans_id, p.item, q.item FROM r1 p, r2 q
	                    WHERE q.trans_id = p.trans_id AND q.item > p.item
	                    ORDER BY p.trans_id, p.item, q.item`, nil)
	if len(got.Rows) == 0 {
		t.Fatal("merge join over sorted tables returned nothing")
	}
	for i := 1; i < len(got.Rows); i++ {
		if slices.Compare(got.Rows[i-1], got.Rows[i]) > 0 {
			t.Fatalf("ORDER BY violated at row %d: %v > %v", i, got.Rows[i-1], got.Rows[i])
		}
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	db.MustExec("INSERT INTO t (a, b) VALUES (1, 2)", nil)
	res := db.MustExec("SELECT a, b FROM t", nil)
	if len(res.Rows) != 1 || res.Rows[0][1] != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Partial or misordered column lists are rejected.
	if _, err := db.Exec("INSERT INTO t (a) VALUES (1)", nil); err == nil {
		t.Error("partial column list accepted")
	}
	if _, err := db.Exec("INSERT INTO t (b, a) VALUES (1, 2)", nil); err == nil {
		t.Error("misordered column list accepted")
	}
}

func TestInsertConstExpressions(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, s INT)", nil)
	db.MustExec("INSERT INTO t VALUES (2 * 3 + 1, -1), (10 / 2 - 1, 0 - 2)", nil)
	res := db.MustExec("SELECT a, s FROM t ORDER BY a", nil)
	if got := res.Rows; got[0][0] != 4 || got[1][0] != 7 || got[0][1] != -2 || got[1][1] != -1 {
		t.Errorf("rows = %v", got)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1 / 0, 1)", nil); err == nil {
		t.Error("division by zero in VALUES accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (:missing, 1)", nil); err == nil {
		t.Error("missing param in VALUES accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (a, 1)", nil); err == nil {
		t.Error("column ref in VALUES accepted")
	}
	// VALUES takes any constant expression; booleans are 0/1.
	db.MustExec("DELETE FROM t", nil)
	db.MustExec("INSERT INTO t VALUES (1 = 1, NOT 2 > 1), (3 > 2 AND 1 < 0 OR 5 <> 5, :x * 2)",
		map[string]int64{"x": 21})
	res = db.MustExec("SELECT a, s FROM t ORDER BY s", nil)
	if got := res.Rows; len(got) != 2 || got[0][0] != 1 || got[0][1] != 0 || got[1][0] != 0 || got[1][1] != 42 {
		t.Errorf("boolean VALUES = %v", got)
	}
}

// TestInsertValuesFailureAppendsNothing: VALUES evaluates every row before
// it appends one, so a failing row — its value or its arity — leaves the
// table as it was, rows before it included.
func TestInsertValuesFailureAppendsNothing(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	execError(t, db, "INSERT INTO t VALUES (1), (2), (10 / 0)", "plan: division by zero")
	execError(t, db, "INSERT INTO t VALUES (1), (2, 3)", `engine: INSERT row arity 2 does not match table "t" arity 1`)
	if got := db.MustExec("SELECT COUNT(*) FROM t", nil).Rows[0][0]; got != 0 {
		t.Errorf("t holds %d rows after failed inserts, want 0", got)
	}
	if r := db.MustExec("INSERT INTO t VALUES (1), (2)", nil); r.RowsAffected != 2 {
		t.Errorf("RowsAffected = %d, want 2", r.RowsAffected)
	}
}

// TestExplainResultIsPlanText: EXPLAIN [ANALYZE] returns its text in Plan,
// one line per operator and the summary last, with no Schema and no Rows.
func TestExplainResultIsPlanText(t *testing.T) {
	db := setupSales(t)
	for _, q := range []string{"EXPLAIN SELECT s.item FROM sales s", "EXPLAIN ANALYZE SELECT s.item FROM sales s"} {
		res := db.MustExec(q, nil)
		if res.Schema != nil || res.Rows != nil {
			t.Errorf("%s: Schema %v, %d rows; want neither", q, res.Schema, len(res.Rows))
		}
		lines := strings.Split(res.Plan, "\n")
		if len(lines) < 3 || lines[len(lines)-1] != "" || !strings.Contains(lines[len(lines)-2], "estimated: ") {
			t.Errorf("%s: plan text %q, want operator lines then the summary, each newline-terminated", q, res.Plan)
		}
	}
}

func TestExecScriptStopsOnError(t *testing.T) {
	db := New()
	_, err := db.ExecScript(`
		CREATE TABLE t (a INT);
		INSERT INTO nonexistent VALUES (1);
		INSERT INTO t VALUES (1);
	`, nil)
	if err == nil {
		t.Fatal("script error swallowed")
	}
	// The third statement must not have run.
	res := db.MustExec("SELECT COUNT(*) FROM t", nil)
	if res.Rows[0][0] != 0 {
		t.Errorf("statements after error executed: %v", res.Rows)
	}
}

func TestMustExecPanicsOnError(t *testing.T) {
	db := New()
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic")
		}
	}()
	db.MustExec("SELECT a FROM missing", nil)
}

func TestInsertSelectArityMismatch(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE src (a INT, b INT)", nil)
	db.MustExec("CREATE TABLE dst (a INT)", nil)
	if _, err := db.Exec("INSERT INTO dst SELECT src.a, src.b FROM src", nil); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestCatalogPoolAccessors(t *testing.T) {
	db := New()
	if db.Catalog() == nil || db.Pool() == nil {
		t.Error("accessors returned nil")
	}
}
