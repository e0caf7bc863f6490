package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"setm/internal/costmodel"
	"setm/internal/engine"
	"setm/internal/gen"
	"setm/internal/tuple"
)

// retailDB loads the retail fixture's sales table into a fresh engine.
// (The fixture comes from internal/gen, which imports the engine through
// core, so this test lives in the external test package.)
func retailDB(t *testing.T) *engine.DB {
	t.Helper()
	cfg := gen.DefaultRetail(7)
	cfg.NumTransactions = 2000
	d := gen.Retail(cfg)
	schema := tuple.IntSchema("trans_id", "item")
	b := tuple.NewBatch(schema)
	for _, r := range d.SalesRows() {
		b.Cols[0].I = append(b.Cols[0].I, r[0])
		b.Cols[1].I = append(b.Cols[1].I, r[1])
		b.BumpRow()
	}
	db := engine.New()
	if err := db.LoadTableBatch("sales", schema, b, nil); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExplainAnalyzeReportsActualVsEstimated(t *testing.T) {
	db := engine.SetupSales(t)
	r := db.MustExec(`EXPLAIN ANALYZE SELECT s.item, COUNT(*) FROM sales s
		GROUP BY s.item HAVING COUNT(*) >= :minsupport`, map[string]int64{"minsupport": 4})
	out := r.Plan
	// Every executed operator reports actuals alongside the estimate.
	if !strings.Contains(out, "actual ") || !strings.Contains(out, "(est ") {
		t.Fatalf("EXPLAIN ANALYZE lacks actual-vs-estimated annotations:\n%s", out)
	}
	// The grouped scan sees 30 sales rows and emits 8 groups; HAVING keeps 5.
	if !strings.Contains(out, "actual 8 rows") {
		t.Errorf("expected the SortGroup to report actual 8 rows:\n%s", out)
	}
	if !strings.Contains(out, "actual 5 rows") {
		t.Errorf("expected the HAVING filter to report actual 5 rows:\n%s", out)
	}
	if !strings.Contains(out, "actual: 5 rows;") {
		t.Errorf("summary line should lead with the actual root cardinality:\n%s", out)
	}
}

// TestCalibrationOnRetailFixture pins the planner's constants on the
// paper's workload shape: the C_1 count-generation query over the retail
// fixture. The summary line of EXPLAIN ANALYZE parses, and its root
// q-error is what the System-R constants (costmodel.Default*) give — 147
// estimated against 57 actual rows — so a changed planner constant shows
// here.
func TestCalibrationOnRetailFixture(t *testing.T) {
	r := retailDB(t).MustExec(`EXPLAIN ANALYZE SELECT s.item, COUNT(*) FROM sales s
		GROUP BY s.item HAVING COUNT(*) >= :minsupport`, map[string]int64{"minsupport": 20})
	lines := strings.Split(strings.TrimSuffix(r.Plan, "\n"), "\n")
	summary := lines[len(lines)-1]
	var actual, estimated int64
	if _, err := fmt.Sscanf(summary, "actual: %d rows; estimated: %d rows", &actual, &estimated); err != nil {
		t.Fatalf("unparseable EXPLAIN ANALYZE summary %q: %v", summary, err)
	}
	if q := costmodel.QError(estimated, actual); q != costmodel.QError(147, 57) {
		t.Errorf("retail C_1 root q-error %.4f (est %d, actual %d), want %.4f (est 147, actual 57)",
			q, estimated, actual, costmodel.QError(147, 57))
	}
}
