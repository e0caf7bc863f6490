package core_test

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"setm/internal/core"
	"setm/internal/gen"
)

// BenchmarkWideCatalogue is the probe for passes past the width a
// bit-packed key holds: T10I4D50K over a 100,000-item catalogue, so the
// item codes take 16 bits and a bit-packed key holds four of them, while
// the executor's rank-coded keys carry every pass. Three drivers at minsup
// 0.001 — MineAuto unbounded, MineAuto under an 8 MiB budget, and
// MinePaged at its default budget (256 frames, 1 MiB) — each report
// wide_ms (the summed Duration of the passes from k = 5, a mine),
// peak_live_mb (the live heap's peak over the whole run above the
// collected baseline, from runtime/metrics sampled every millisecond) and
// patterns (the total frequent patterns, the same on every driver).
//
//	go test -run '^$' -bench WideCatalogue -cpu 1 ./internal/core/
func BenchmarkWideCatalogue(b *testing.B) {
	cfg := gen.T10I4D100K(0.5, 1)
	cfg.NumItems = 100_000
	d := gen.Quest(cfg)
	opts := core.Options{MinSupportFrac: 0.001}
	budgeted := opts
	budgeted.MemoryBudget = 8 << 20
	for _, c := range []struct {
		name string
		mine func() (*core.Result, error)
	}{
		{"auto", func() (*core.Result, error) { return core.MineAuto(d, opts) }},
		{"auto-8MiB", func() (*core.Result, error) { return core.MineAuto(d, budgeted) }},
		{"paged", func() (*core.Result, error) {
			r, err := core.MinePaged(d, opts, core.PagedConfig{})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			runtime.GC()
			runtime.GC() // twice: the arena pools keep a victim generation
			base := liveHeap()
			peak := sampleHeapPeak(time.Millisecond)
			var wide time.Duration
			patterns := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.mine()
				if err != nil {
					b.Fatal(err)
				}
				for _, st := range res.Stats {
					if st.K >= 5 {
						wide += st.Duration
					}
				}
				patterns = res.TotalPatterns()
			}
			b.StopTimer()
			top := peak()
			b.ReportMetric(float64(wide.Microseconds())/1e3/float64(b.N), "wide_ms")
			b.ReportMetric(float64(int64(top)-int64(base))/(1<<20), "peak_live_mb")
			b.ReportMetric(float64(patterns), "patterns")
		})
	}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// liveHeap reads the bytes of live and not-yet-swept heap objects.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeapPeak polls liveHeap every interval until the returned stop
// function is called, which yields the highest reading.
func sampleHeapPeak(interval time.Duration) (stop func() uint64) {
	done, quit := make(chan struct{}), make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			peak = max(peak, liveHeap())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		return peak
	}
}
