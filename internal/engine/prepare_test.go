package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"setm/internal/tuple"
)

func TestPreparedExecMatchesExec(t *testing.T) {
	db := setupSales(t)
	const q = `SELECT r1.item, COUNT(*) FROM sales r1 GROUP BY r1.item HAVING COUNT(*) >= :minsupport ORDER BY r1.item`
	want := db.MustExec(q, map[string]int64{"minsupport": 2})

	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := st.Exec(map[string]int64{"minsupport": 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("run %d: %d rows, want %d", i, len(got.Rows), len(want.Rows))
		}
		for j := range got.Rows {
			for c := range got.Rows[j] {
				if got.Rows[j][c] != want.Rows[j][c] {
					t.Fatalf("run %d row %d: %v != %v", i, j, got.Rows[j], want.Rows[j])
				}
			}
		}
	}
}

func TestPreparedParamRebinding(t *testing.T) {
	db := setupSales(t)
	st, err := db.Prepare(`SELECT s.item FROM sales s WHERE s.item = :x`)
	if err != nil {
		t.Fatal(err)
	}
	for x, want := range map[int64]int{1: 6, 4: 6, 99: 0} {
		r, err := st.Exec(map[string]int64{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != want {
			t.Errorf(":x=%d returned %d rows, want %d", x, len(r.Rows), want)
		}
	}
}

// TestPreparedSelectSeesCatalogChanges: a prepared SELECT plans against
// the catalog as it stands at each execution, so a table dropped and
// re-created, or replaced by a load, returns its new rows, and a table
// that is gone returns the catalog's error.
func TestPreparedSelectSeesCatalogChanges(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1), (2)", nil)
	st, err := db.Prepare(`SELECT t.a FROM t ORDER BY t.a`)
	if err != nil {
		t.Fatal(err)
	}
	// check runs st through Exec and QueryBatches; both must see want.
	check := func(when string, want ...int64) {
		t.Helper()
		r, err := st.Exec(nil)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		_, batches, err := st.QueryBatches(nil)
		if err != nil {
			t.Fatalf("%s: QueryBatches: %v", when, err)
		}
		for _, rows := range [][][]int64{r.Rows, flattenBatches(nil, batches)} {
			var got []int64
			for _, row := range rows {
				got = append(got, row[0])
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: got %v, want %v", when, got, want)
			}
		}
	}
	check("first run", 1, 2)

	db.MustExec("DROP TABLE t", nil)
	db.MustExec("CREATE TABLE t (b INT, a INT)", nil)
	db.MustExec("INSERT INTO t VALUES (9, 7)", nil)
	check("after DROP and CREATE", 7)

	rows := [][]int64{{5}, {3}, {4}}
	loadRows(t, db, "t", tuple.IntSchema("a"), rows)
	check("after a load", 3, 4, 5)

	db.MustExec("DROP TABLE t", nil)
	const noTable = `catalog: no such table "t"`
	if _, err := st.Exec(nil); err == nil || err.Error() != noTable {
		t.Fatalf("after DROP: err = %v, want %q", err, noTable)
	}
	if _, _, err := st.QueryBatches(nil); err == nil || err.Error() != noTable {
		t.Fatalf("after DROP: QueryBatches err = %v, want %q", err, noTable)
	}
}

// TestPreparedSelectSortsAgainAfterAppend: a prepared SELECT whose first
// run skipped its sort (the table was provably ordered) sorts again once
// an append destroyed the ordering.
func TestPreparedSelectSortsAgainAfterAppend(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", nil)
	db.MustExec("CREATE TABLE s (a INT, b INT)", nil)
	// Ordered fresh fill: s is provably sorted by a, so the SELECT below
	// plans without a sort.
	db.MustExec("INSERT INTO s SELECT t.a, t.b FROM t ORDER BY t.a", nil)

	const q = `SELECT s.a FROM s ORDER BY s.a`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(nil); err != nil {
		t.Fatal(err)
	}
	// Destroy the ordering: append an out-of-order row.
	db.MustExec("INSERT INTO s VALUES (0, 0)", nil)
	r, err := st.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = math.MinInt64
	for _, row := range r.Rows {
		if row[0] < prev {
			t.Fatalf("sort skipped after append: out of order %v", r.Rows)
		}
		prev = row[0]
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(r.Rows))
	}
}

// TestPreparedInsertSelectSortsAgainAfterAppend is the same check for a
// prepared INSERT ... SELECT ... ORDER BY: once its source lost its
// ordering, the target is filled sorted again (and may claim to be).
func TestPreparedInsertSelectSortsAgainAfterAppend(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)", nil)
	db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", nil)
	db.MustExec("CREATE TABLE s (a INT, b INT)", nil)
	db.MustExec("INSERT INTO s SELECT t.a, t.b FROM t ORDER BY t.a", nil)
	db.MustExec("CREATE TABLE dst (a INT, b INT)", nil)

	st, err := db.Prepare(`INSERT INTO dst SELECT s.a, s.b FROM s ORDER BY s.a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(nil); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO s VALUES (0, 0)", nil)
	db.MustExec("DELETE FROM dst", nil)
	if _, err := st.Exec(nil); err != nil {
		t.Fatal(err)
	}
	// No ORDER BY: the scan returns dst's rows in stored order.
	r := db.MustExec("SELECT dst.a FROM dst", nil)
	var prev int64 = math.MinInt64
	for _, row := range r.Rows {
		if row[0] < prev {
			t.Fatalf("sort skipped after the source's append: dst stored out of order %v", r.Rows)
		}
		prev = row[0]
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(r.Rows))
	}
}

func TestPreparedInsertSelect(t *testing.T) {
	db := setupSales(t)
	db.MustExec("CREATE TABLE c1 (item1 INT, cnt INT)", nil)
	st, err := db.Prepare(`INSERT INTO c1
		SELECT r1.item, COUNT(*) FROM sales r1
		GROUP BY r1.item HAVING COUNT(*) >= :minsupport`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.Exec(map[string]int64{"minsupport": 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 5 {
		t.Fatalf("RowsAffected = %d, want 5 (items 1..5 are frequent at support 4)", r.RowsAffected)
	}
}

func TestStmtQueryBatches(t *testing.T) {
	db := setupSales(t)
	st, err := db.Prepare(`SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item ORDER BY s.item`)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		schema, batches, err := st.QueryBatches(nil)
		if err != nil {
			t.Fatal(err)
		}
		if schema.Len() != 2 {
			t.Fatalf("schema %v", schema)
		}
		total := 0
		for _, b := range batches {
			total += b.Len()
		}
		if total != 8 {
			t.Fatalf("run %d: %d grouped rows, want 8 distinct items", run, total)
		}
	}
}

func TestExplainWithoutAnalyzeDoesNotExecute(t *testing.T) {
	db := setupSales(t)
	db.MustExec("CREATE TABLE sink (item INT)", nil)
	r := db.MustExec("EXPLAIN SELECT s.item FROM sales s", nil)
	if strings.Contains(r.Plan, "actual") {
		t.Fatalf("plain EXPLAIN must not report actuals:\n%s", r.Plan)
	}
}
