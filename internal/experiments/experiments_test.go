package experiments

import (
	"slices"
	"strings"
	"testing"

	"setm/internal/core"
	"setm/internal/gen"
)

// smallRetail is a scaled-down retail profile for fast tests.
func smallRetail() *core.Dataset {
	cfg := gen.DefaultRetail(1)
	cfg.NumTransactions = 4000
	return gen.Retail(cfg)
}

func TestIterationProfileShapes(t *testing.T) {
	d := smallRetail()
	series, err := IterationProfile(d, []float64{0.002, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	small, large := series[0], series[1]
	// |R_1| identical across support levels ("the starting relations are
	// the same").
	if small.Points[0].RRows != large.Points[0].RRows {
		t.Errorf("|R_1| differs: %d vs %d", small.Points[0].RRows, large.Points[0].RRows)
	}
	// The small-support run must go at least as deep as the large-support
	// run.
	if len(small.Points) < len(large.Points) {
		t.Errorf("small support terminated earlier: %d vs %d iterations",
			len(small.Points), len(large.Points))
	}
	// Final point is the zero marker.
	lastSmall := small.Points[len(small.Points)-1]
	if lastSmall.RRows != 0 || lastSmall.CCount != 0 {
		t.Errorf("missing zero marker: %+v", lastSmall)
	}
	// Figure 5 trend: sizes decrease from iteration 2 onward for the large
	// support ("for large values of minimum support, |R_i| decreases quite
	// rapidly from the first iteration to the second").
	if len(large.Points) >= 2 && large.Points[1].RRows > large.Points[0].RRows {
		t.Errorf("large support grew: %d -> %d", large.Points[0].RRows, large.Points[1].RRows)
	}
}

func TestFormatters(t *testing.T) {
	d := smallRetail()
	series, err := IterationProfile(d, []float64{0.01, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"fig5":  FormatFig5(series),
		"fig6":  FormatFig6(series),
		"rrows": FormatRRows(series),
	} {
		if !strings.Contains(s, "1.0%") || !strings.Contains(s, "5.0%") {
			t.Errorf("%s table missing headers:\n%s", name, s)
		}
		if strings.Count(s, "\n") < 3 {
			t.Errorf("%s table too short:\n%s", name, s)
		}
	}
}

func TestExecTimesAndStability(t *testing.T) {
	d := smallRetail()
	rows, err := ExecTimes(d, []float64{0.005, 0.05}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("non-positive time: %+v", r)
		}
	}
	if s := Stability(rows); s < 1 {
		t.Errorf("stability = %v, want >= 1", s)
	}
	out := FormatExecTimes(rows)
	if !strings.Contains(out, "stability") {
		t.Errorf("missing stability line:\n%s", out)
	}
}

func TestStabilityEdgeCases(t *testing.T) {
	if Stability(nil) != 0 {
		t.Error("empty stability != 0")
	}
	if Stability([]TimeRow{{Seconds: 0}}) != 0 {
		t.Error("zero-time stability != 0")
	}
}

func TestCompareCrossValidates(t *testing.T) {
	cfg := gen.DefaultRetail(2)
	cfg.NumTransactions = 1500
	d := gen.Retail(cfg)
	rows, err := Compare(d, core.Options{MinSupportFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("algorithms = %d, want 7", len(rows))
	}
	want := rows[0].Patterns
	for _, r := range rows {
		if r.Patterns != want {
			t.Errorf("%s found %d patterns, want %d", r.Algorithm, r.Patterns, want)
		}
	}
	out := FormatCompare(rows)
	for _, alg := range []string{"setm-memory", "setm-auto", "setm-paged", "setm-sql", "nested-loop", "ais", "apriori"} {
		if !strings.Contains(out, alg) {
			t.Errorf("comparison table missing %s:\n%s", alg, out)
		}
	}
}

func TestAnalysisReportNumbers(t *testing.T) {
	out := AnalysisReport()
	for _, want := range []string{"2040000", "120000", "4000 leaf pages", "|C1| = 1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("analysis report missing %q:\n%s", want, out)
		}
	}
}

func TestPagedIOCheck(t *testing.T) {
	cfg := gen.DefaultRetail(3)
	cfg.NumTransactions = 2000
	d := gen.Retail(cfg)
	measured, bound, seqDominated, err := PagedIOCheck(d, core.Options{MinSupportFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if measured <= 0 || bound <= 0 {
		t.Fatalf("measured = %d, bound = %d", measured, bound)
	}
	if !seqDominated {
		t.Error("SETM I/O not sequential-dominated")
	}
	// The measured accesses should be in the same regime as the analytic
	// bound — within a small constant factor, since the bound ignores the
	// extra C_k scans and buffer-pool caching cuts both ways.
	if measured > 8*bound {
		t.Errorf("measured %d far above bound %d", measured, bound)
	}
}

// TestPagedIOCheckGolden pins `setm-bench -exp io` — 4,000 retail
// transactions of seed 1 at 1% — to its figures: 313 page accesses
// against the Section 4.3 bound of 204, sequential-dominated, and the
// per-pass spill accounting of the MinePaged run behind them. MinePaged
// keeps SALES on pages, as the paper's arithmetic charges it, so its k=1
// writes R_1 as a run. TestPagedIOCheck's 8× band would not notice a
// driver that stopped doing so; this does.
func TestPagedIOCheckGolden(t *testing.T) {
	cfg := gen.DefaultRetail(1)
	cfg.NumTransactions = 4000
	d := gen.Retail(cfg)
	opts := core.Options{MinSupportFrac: 0.01}
	measured, bound, seqDominated, err := PagedIOCheck(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if measured != 313 || bound != 204 || !seqDominated {
		t.Errorf("PagedIOCheck = %d measured, %d bound, sequential-dominated %v; want 313, 204, true", measured, bound, seqDominated)
	}

	// PagedIOCheck's own run: its default budget over its 16-frame pool.
	opts.MemoryBudget = 32 << 10
	res, err := core.MinePaged(d, opts, core.PagedConfig{PoolFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	type acct struct{ runs, bytes, pageIO int64 }
	want := []acct{{1, 156048, 39}, {2, 201440, 165}, {1, 34704, 70}, {0, 0, 39}}
	var got []acct
	for _, st := range res.Stats {
		got = append(got, acct{st.RunsSpilled, st.SpillBytes, st.PageIO})
	}
	if !slices.Equal(got, want) {
		t.Errorf("MinePaged per-pass (runs, bytes, page I/O) = %v, want %v", got, want)
	}
	if len(res.Stats) == 0 || res.Stats[0].RunsSpilled < 1 {
		t.Error("MinePaged's k=1 wrote no run: SALES is no longer on pages")
	}
}

func TestModelVsMeasured(t *testing.T) {
	rows, err := ModelVsMeasured(0.01, 1) // 2,000 transactions
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %v", rows)
	}
	// k=1: the live tuple count equals the model exactly (every
	// transaction contributes exactly ItemsPerTxn = 10 rows).
	if rows[0].LiveTuples != rows[0].ModelTuples {
		t.Errorf("k=1 tuples: live %d, model %d", rows[0].LiveTuples, rows[0].ModelTuples)
	}
	// k=2: live |R'_2| equals C(10,2) × txns = 45 × 2000 exactly.
	if rows[1].LiveTuples != rows[1].ModelTuples {
		t.Errorf("k=2 tuples: live %d, model %d", rows[1].LiveTuples, rows[1].ModelTuples)
	}
	// Live pages hold 16-byte packed rows in full 4096-byte pages; the
	// model packs (k+1) 4-byte fields into 4,000 usable bytes. The ratio
	// must track that arithmetic per k (within paging granularity).
	for _, r := range rows {
		ratio := float64(r.LivePages) / float64(r.ModelPages)
		expect := (16.0 / 4096.0) / (float64(r.K+1) * 4.0 / 4000.0)
		if ratio < 0.9*expect || ratio > 1.25*expect {
			t.Errorf("k=%d: page ratio %.2f outside [%.2f, %.2f] (live %d, model %d)",
				r.K, ratio, 0.9*expect, 1.25*expect, r.LivePages, r.ModelPages)
		}
	}
	out := FormatModelVsMeasured(rows)
	if !strings.Contains(out, "model pages") {
		t.Errorf("format missing header:\n%s", out)
	}
}

func TestCharts(t *testing.T) {
	d := smallRetail()
	series, err := IterationProfile(d, []float64{0.002, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for name, chart := range map[string]string{
		"fig5": ChartFig5(series),
		"fig6": ChartFig6(series),
	} {
		if !strings.Contains(chart, "legend") {
			t.Errorf("%s chart missing legend:\n%s", name, chart)
		}
		if !strings.Contains(chart, "*") || !strings.Contains(chart, "o") {
			t.Errorf("%s chart missing series markers:\n%s", name, chart)
		}
		if !strings.Contains(chart, "i=1") {
			t.Errorf("%s chart missing x labels:\n%s", name, chart)
		}
	}
	// Degenerate input renders without panicking.
	if out := Chart("t", "y", nil, func(SeriesPoint) float64 { return 0 }, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}
