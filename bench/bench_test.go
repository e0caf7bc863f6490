package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// tinyRun runs one pass of a workload in this process at -scale tiny.
func tinyRun(t *testing.T, w workload, trace bool) *runResult {
	t.Helper()
	refs, _, err := reference(w, 1, scaleTiny, trace)
	if err != nil {
		t.Fatalf("%s: reference: %v", w.name, err)
	}
	dir := t.TempDir()
	res, err := runWorkload(runConfig{w: w, seed: 1, trace: trace, sc: scaleTiny, refs: refs, outDir: dir})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if trace {
		var spans []span
		raw, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
		if err == nil {
			err = json.Unmarshal(raw, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: trace file: %d spans, %v", w.name, len(spans), err)
		}
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

// TestEveryWorkloadEmitsEveryDeclaredMetric runs all five workloads, both
// passes, and holds the output against BENCHMARK.json: every declared
// metric exactly once, finite, well named, in the declared unit.
func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	decl, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace)
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			seen := make(map[string]int)
			units := make(map[string]string)
			for _, m := range res.Metrics {
				seen[m.Name]++
				units[m.Name] = m.Unit
				if !nameRE.MatchString(m.Name) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %q = %v", w.name, m.Name, m.Value)
				}
			}
			for _, d := range want {
				if seen[d.Name] != 1 || units[d.Name] != d.Unit {
					t.Errorf("%s trace=%v: declared metric %s (%s) emitted %d times in unit %q", w.name, trace, d.Name, d.Unit, seen[d.Name], units[d.Name])
				}
			}
		}
	}
}

// TestExactCountsRepeat: the counts taken at MaxWorkers 1 are a function
// of the input alone — two probes of the spilled workload agree on them.
func TestExactCountsRepeat(t *testing.T) {
	w, _ := findWorkload("quest-spilled")
	w.budget /= scaleTiny.budgetDiv
	refs, _, err := reference(w, 1, scaleTiny, true)
	if err != nil {
		t.Fatal(err)
	}
	env := &nativeEnv{w: w, d: makeDataset(w.data, 1, scaleTiny), ref: refs[0], tmp: t.TempDir()}
	probe := func() []metric {
		rep, tl := new(report), new(tally)
		nativeProbe(env, newTracer(), budget{0, 2}, rep, tl)
		if tl.failed != 0 {
			t.Fatalf("%d of %d ops failed: %v", tl.failed, tl.attempted, tl.errs)
		}
		return rep.metrics
	}
	a, b := probe(), probe()
	if spilled, _ := metricValue(a, "core.runs_spilled"); spilled == 0 {
		t.Fatal("the tiny quest-spilled probe spilled nothing, so it tests nothing")
	}
	for _, name := range exactCounts {
		va, ok := metricValue(a, name)
		vb, _ := metricValue(b, name)
		if ok && va != vb {
			t.Errorf("%s: %v then %v", name, va, vb)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so the rule must sort
		}
		return v
	}
	for _, tc := range []struct {
		n        int
		val, pct float64
	}{
		{0, 0, 0},
		{5, 3, 50},                // too few: the median
		{20, 10.5, 50},            // n-10 = 10th value would sit below the median
		{22, 12, 100 * 12.0 / 22}, // 12th of 22: ten beyond
		{100, 90, 90},
		{1000, 990, 99},
	} {
		val, pct := tail(seq(tc.n))
		if val != tc.val || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", tc.n, val, pct, tc.val, tc.pct)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, the contract's spread rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{3, 1, 7}, 1, 7},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps 2: 30..40 counts once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 2, StartNs: 10, EndNs: 40},  // a grandchild changes only its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestClassifyStatements(t *testing.T) {
	for sql, want := range map[string]string{
		"CREATE TABLE c1 (item1 INT, cnt INT)":                    "ddl",
		"DROP TABLE rp2":                                          "ddl",
		"INSERT INTO rp3\n\t\tSELECT p.trans_id FROM r2 p":        "extend",
		"INSERT INTO c1\n\t\tSELECT r1.item, COUNT(*) FROM sales": "count",
		"INSERT INTO r2\n\t\tSELECT p.trans_id FROM rp2 p, c2 q":  "filter",
		"insert into r1 select s.trans_id from sales s":           "filter",
		"SELECT item1, cnt FROM c1 ORDER BY item1":                "read",
		"DELETE FROM c1":                  "",
		"INSERT INTO sales VALUES (1, 2)": "",
		"":                                "",
	} {
		if got := classify(sql); got != want {
			t.Errorf("classify(%q) = %q, want %q", sql, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	loose := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		name     string
		old, new []float64
		higher   bool
		want     string
	}{
		{"same", tight(1), tight(1.03), false, "same"},
		{"worse", tight(1), tight(1.2), false, "worse"},
		{"better", tight(1), tight(0.8), false, "better"},
		{"throughput down is worse", tight(100), tight(80), true, "worse"},
		{"throughput up is better", tight(100), tight(130), true, "better"},
		{"noise hides a shift", loose(1), loose(1.15), false, "unresolved"},
		{"every run better beats noise", loose(1), tight(0.4), false, "better"},
		{"single runs within bound", []float64{1}, []float64{0.95}, false, "same"},
		{"single runs beyond bound", []float64{1}, []float64{1.11}, false, "worse"},
	} {
		if got := verdict(tc.old, tc.new, 0.10, tc.higher); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
