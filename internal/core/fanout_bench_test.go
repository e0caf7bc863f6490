package core_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"setm/internal/core"
	"setm/internal/gen"
)

// BenchmarkPassFanOut is the measurement behind costmodel.ParallelMinRows:
// pass by pass, does a resident pass run faster at two workers than at
// one, and from what size of R_{k-1} on? Each op is one alternating pair
// of MineAuto mines at MaxWorkers one and two (which goes first swaps
// every pair), on quest at five scales (minsup 0.0025) and the retail
// stand-in at three sizes (minsup 0.001). For every pass the planner cuts
// in two (at least 2·ParallelMinRows rows of R_{k-1}, so the probe can
// show the threshold too low, not too high) it reports kN_rows
// (|R_{k-1}|), kN_1w_ms and kN_2w_ms (the median Durations) and
// kN_2w_wins (the pairs in which two workers beat one). Run on two CPUs:
//
//	go test -run '^$' -bench PassFanOut -cpu 2 -benchtime 10x ./internal/core/
func BenchmarkPassFanOut(b *testing.B) {
	type dataset struct {
		name   string
		d      func() *core.Dataset
		minSup float64
	}
	var sets []dataset
	for _, scale := range []float64{0.01, 0.03, 0.1, 0.3, 1.0} {
		sets = append(sets, dataset{fmt.Sprintf("quest-%g", scale),
			func() *core.Dataset { return gen.Quest(gen.T10I4D100K(scale, 1)) }, 0.0025})
	}
	for _, txns := range []int{2000, 8000, 46873} {
		cfg := gen.DefaultRetail(1)
		cfg.NumTransactions = txns
		sets = append(sets, dataset{fmt.Sprintf("retail-%d", txns),
			func() *core.Dataset { return gen.Retail(cfg) }, 0.001})
	}
	for _, ds := range sets {
		b.Run(ds.name, func(b *testing.B) {
			if runtime.GOMAXPROCS(0) < 2 {
				b.Skip("two workers need two CPUs: run with -cpu 2")
			}
			d, opts := ds.d(), core.Options{MinSupportFrac: ds.minSup}
			mine := func(workers int) []core.IterationStat {
				o := opts
				o.MaxWorkers = workers
				res, err := core.MineAuto(d, o)
				if err != nil {
					b.Fatal(err)
				}
				return res.Stats
			}
			mine(1) // the memo and both arenas warm outside the timer
			stats := mine(2)
			ms := [2][][]float64{make([][]float64, len(stats)), make([][]float64, len(stats))}
			wins := make([]int, len(stats))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var pair [2][]core.IterationStat
				for j := range pair {
					w := (i + j) % 2
					pair[w] = mine(w + 1)
				}
				for k := range stats {
					one, two := pair[0][k].Duration, pair[1][k].Duration
					ms[0][k] = append(ms[0][k], float64(one)/1e6)
					ms[1][k] = append(ms[1][k], float64(two)/1e6)
					if two < one {
						wins[k]++
					}
				}
			}
			b.StopTimer()
			for k, st := range stats {
				rows := st.RPrimeRows // k = 1 cuts SALES
				if k > 0 {
					rows = stats[k-1].RRows
				}
				if st.Plan.Workers < 2 {
					continue // one chunk at either count
				}
				b.ReportMetric(float64(rows), fmt.Sprintf("k%d_rows", st.K))
				b.ReportMetric(median(ms[0][k]), fmt.Sprintf("k%d_1w_ms", st.K))
				b.ReportMetric(median(ms[1][k]), fmt.Sprintf("k%d_2w_ms", st.K))
				b.ReportMetric(float64(wins[k]), fmt.Sprintf("k%d_2w_wins", st.K))
			}
		})
	}
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}
