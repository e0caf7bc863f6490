package core_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"setm/internal/core"
	"setm/internal/gen"
)

// BenchmarkPass2 is the A/B of pass 2 on the bench workloads' data:
// T10I4D100K (quest-1.0, minsup 0.0025) and the retail stand-in (minsup
// 0.001). The "pairs" arm is MineAuto, whose k=2 counts pairs straight
// off SALES; the "materialized" arm is MinePaged at a negative budget —
// the same executor, resident, with the paper's k=2 that writes R'_2,
// counts it and filters it. Each reports k2_ms (the median Duration of
// pass 2 over the mines), peak_live_mb (the live heap's peak over the
// run above the collected baseline, sampled every millisecond; the
// first mine starts on a cold arena, so its buffers count) and the k=2
// plan's |R'_2| and |R_2| (the same on both arms).
//
//	go test -run '^$' -bench Pass2 -cpu 1 -benchtime 15x ./internal/core/
func BenchmarkPass2(b *testing.B) {
	for _, ds := range []struct {
		name   string
		d      func() *core.Dataset
		minSup float64
	}{
		{"quest-1.0", func() *core.Dataset { return gen.Quest(gen.T10I4D100K(1.0, 1)) }, 0.0025},
		{"retail", func() *core.Dataset { return gen.Retail(gen.DefaultRetail(1)) }, 0.001},
	} {
		d := ds.d()
		opts := core.Options{MinSupportFrac: ds.minSup}
		resident := opts
		resident.MemoryBudget = -1
		for _, arm := range []struct {
			name  string
			count string
			mine  func() (*core.Result, error)
		}{
			{"pairs", core.CountPairs, func() (*core.Result, error) { return core.MineAuto(d, opts) }},
			{"materialized", core.CountTable, func() (*core.Result, error) {
				r, err := core.MinePaged(d, resident, core.PagedConfig{})
				if err != nil {
					return nil, err
				}
				return r.Result, nil
			}},
		} {
			b.Run(ds.name+"/"+arm.name, func(b *testing.B) {
				d.NumSalesRows() // the memo is the data set's, built outside the probe
				runtime.GC()
				runtime.GC() // twice: the arena pools keep a victim generation
				base := liveHeap()
				peak := sampleHeapPeak(time.Millisecond)
				var k2 []float64
				var st core.IterationStat
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := arm.mine()
					if err != nil {
						b.Fatal(err)
					}
					if st = res.Stats[1]; st.Plan.Count != arm.count {
						b.Fatalf("k=2 ran %s, want %s", st.Plan, arm.count)
					}
					k2 = append(k2, float64(st.Duration)/1e6)
				}
				b.StopTimer()
				top := peak()
				slices.Sort(k2)
				b.ReportMetric(k2[len(k2)/2], "k2_ms")
				b.ReportMetric(float64(int64(top)-int64(base))/(1<<20), "peak_live_mb")
				b.ReportMetric(float64(st.RPrimeRows), "rprime2")
				b.ReportMetric(float64(st.RRows), "r2")
			})
		}
	}
}
