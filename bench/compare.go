package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"text/tabwriter"
)

// exactCounts are the counts taken from the MaxWorkers-1 op. They depend
// on the input alone, so two runs of one build on one seed must agree on
// them exactly.
var exactCounts = []string{
	"core.r_prime_rows", "core.r_rows", "core.patterns", "core.sorts_skipped",
	"core.runs_spilled", "core.page_io", "storage.page_reads", "storage.page_writes",
	"storage.pinned_frames_end", "exec.stmts_per_mine", "rules.count",
}

// gates maps every end-to-end metric to its direction and the share of
// the old median by which it may worsen: BENCHMARK.json's, plus the three
// setmd-only medians (times: lower is better).
func gates(decl *declaration) map[string]declMetric {
	g := make(map[string]declMetric)
	for _, m := range decl.EndToEnd {
		g[m.Name] = m
	}
	for name, bound := range setmdOnlyBounds {
		g[name] = declMetric{Name: name, Unit: "s", Better: "lower", Bound: bound}
	}
	return g
}

// series collects, per workload and end-to-end metric, the values of the
// measured passes in runs, in the order the metrics were first seen.
func series(runs []*runResult) (keys [][2]string, vals map[[2]string][]float64) {
	vals = make(map[[2]string][]float64)
	for _, r := range runs {
		if r.Trace {
			continue
		}
		for _, m := range r.Metrics {
			k := [2]string{r.Workload, m.Name}
			if _, seen := vals[k]; !seen {
				keys = append(keys, k)
			}
			vals[k] = append(vals[k], m.Value)
		}
	}
	return keys, vals
}

// verdict judges new against old for one metric on one workload. worse:
// the median worsened by more than the bound. unresolved: a side's own
// spread (quartile distance over median) exceeds the bound, so a shift of
// that size cannot be told from noise — unless every new run lies on one
// side of every old run. better: the median improved by more than both
// spreads (and, with a single run on a side, by more than the bound).
func verdict(old, new []float64, bound float64, higher bool) string {
	so, sn := sorted(old), sorted(new)
	mo, mn := median(old), median(new)
	shift := (mn - mo) / mo // share of the old median by which new is worse
	allWorse, allBetter := sn[0] > so[len(so)-1], sn[len(sn)-1] < so[0]
	if higher {
		shift, allWorse, allBetter = -shift, allBetter, allWorse
	}
	spread := func(v []float64, m float64) float64 {
		q1, q3 := quartiles(v)
		return (q3 - q1) / m
	}
	noise := max(spread(old, mo), spread(new, mn))
	gain := noise
	if len(old) < 2 || len(new) < 2 {
		gain = bound
	}
	switch {
	case noise > bound && allBetter:
		return "better"
	case noise > bound && !(allWorse && shift > bound):
		return "unresolved"
	case shift > bound:
		return "worse"
	case -shift > gain:
		return "better"
	}
	return "same"
}

// compareRuns prints one row per workload and end-to-end metric and
// returns the number of worse and of unresolved rows.
func compareRuns(old, new []*runResult, decl *declaration, w io.Writer) (worse, unresolved int) {
	gate := gates(decl)
	keys, ov := series(old)
	_, nv := series(new)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3] n\tnew median [q1, q3] n\tnew/old\tbound\tverdict")
	for _, k := range keys {
		o, n := ov[k], nv[k]
		g, ok := gate[k[1]]
		if !ok || len(n) == 0 {
			continue
		}
		v := verdict(o, n, g.Bound, g.Better == "higher")
		switch v {
		case "worse":
			worse++
		case "unresolved":
			unresolved++
		}
		oq1, oq3 := quartiles(o)
		nq1, nq3 := quartiles(n)
		fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%.4f of %.6g\t%.0f%%\t%s\n",
			k[0], k[1], median(o), oq1, oq3, len(o), median(n), nq1, nq3, len(n), ratio(median(n), median(o)), median(o), 100*g.Bound, v)
	}
	tw.Flush()
	return worse, unresolved
}

func compareFiles(oldPath, newPath string, decl *declaration, stdout, stderr io.Writer) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	new, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if worse, _ := compareRuns(old, new, decl, stdout); worse > 0 {
		fmt.Fprintf(stderr, "bench: %d metrics worse beyond their bound\n", worse)
		return 1
	}
	return 0
}

// selfCheck runs the suite twice on this build and fails if the two sets
// disagree: the medians of an end-to-end metric apart by more than its
// bound, in either direction, or an exact count by anything at all.
func selfCheck(o options, decl *declaration, stdout, stderr io.Writer) int {
	var sets [2][]*runResult
	for i := range sets {
		runs, err := suite(o, stdout, stderr)
		if err == nil {
			if bad := failures(runs); len(bad) > 0 {
				err = fmt.Errorf("incorrect: %v", bad)
			}
		}
		if err == nil {
			err = writeResults(filepath.Join(o.outDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i)), runs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		sets[i] = runs
	}
	compareRuns(sets[0], sets[1], decl, stdout)
	bad := 0
	gate := gates(decl)
	keys, av := series(sets[0])
	_, bv := series(sets[1])
	for _, k := range keys {
		ma, mb := median(av[k]), median(bv[k])
		if g, ok := gate[k[1]]; ok && math.Abs(ma-mb) > g.Bound*min(ma, mb) {
			fmt.Fprintf(stdout, "%s: %s read %v, then %v: apart by more than %.0f%%\n", k[0], k[1], ma, mb, 100*g.Bound)
			bad++
		}
	}
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, name := range exactCounts {
			va, okA := metricValue(a.Metrics, name)
			vb, _ := metricValue(b.Metrics, name)
			if okA && va != vb {
				fmt.Fprintf(stdout, "%s seed %d: %s read %v, then %v\n", a.Workload, a.Seed, name, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "bench: selfcheck: %d disagreements between two runs of one build\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: the two runs agree on every end-to-end metric within its bound and on every exact count")
	return 0
}
