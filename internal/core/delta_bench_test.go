package core_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"setm/internal/core"
	"setm/internal/gen"
)

// BenchmarkDeltaVsCold is the probe behind MineDelta's one fallback route
// (ISSUE 27, README "Cost and when it degrades"): a data set is split into
// a base of the first N/(1+p) transactions and a delta of the rest, the
// base is mined with RetainBorder outside the timer, and each iteration
// times MineDelta(base, delta) and a cold MineAuto(base+delta) back to
// back. Reported per cell: the two medians in ms, their ratio, and the
// route MineDelta took — 0 the pure delta path, 1 the fallback (a cold
// re-mine), 2 a delta prefix followed by executor passes (the seeded
// resume this file measured out of the tree; only a build before PR 27
// reports it).
//
//	go test -run '^$' -bench DeltaVsCold -benchtime 7x -cpu 1,2 ./internal/core/
func BenchmarkDeltaVsCold(b *testing.B) {
	retail := func(seed int64) func() *core.Dataset {
		return func() *core.Dataset { return gen.Retail(gen.DefaultRetail(seed)) }
	}
	quest := func(scale float64, seed int64) func() *core.Dataset {
		return func() *core.Dataset { return gen.Quest(gen.T10I4D100K(scale, seed)) }
	}
	for _, ds := range []struct {
		name   string
		d      func() *core.Dataset
		minSup float64
	}{
		{"retail-1", retail(1), 0.001}, {"retail-2", retail(2), 0.001},
		{"retail-3", retail(3), 0.001}, {"retail-4", retail(4), 0.001},
		{"quest-1.0", quest(1.0, 1), 0.0025}, {"quest-0.5", quest(0.5, 2), 0.0025},
	} {
		full := ds.d()
		for _, pct := range []int{1, 5, 10, 25} {
			b.Run(fmt.Sprintf("%s/+%d%%", ds.name, pct), func(b *testing.B) {
				n := len(full.Transactions) * 100 / (100 + pct)
				base := &core.Dataset{Transactions: full.Transactions[:n]}
				delta := &core.Dataset{Transactions: full.Transactions[n:]}
				opts := core.Options{MinSupportFrac: ds.minSup, RetainBorder: true}
				seed, err := core.MineAuto(base, opts)
				if err != nil || seed.Border == nil {
					b.Fatalf("base mine: border %v, err %v", seed.Border != nil, err)
				}
				var deltaMs, coldMs []float64
				route := 0.0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					got, err := core.MineDelta(context.Background(), base, delta, seed.Border, opts)
					if err != nil {
						b.Fatal(err)
					}
					deltaMs = append(deltaMs, float64(time.Since(start))/1e6)
					start = time.Now()
					want, err := core.MineAuto(full, opts)
					if err != nil {
						b.Fatal(err)
					}
					coldMs = append(coldMs, float64(time.Since(start))/1e6)
					if got.TotalPatterns() != want.TotalPatterns() {
						b.Fatalf("delta found %d patterns, cold %d", got.TotalPatterns(), want.TotalPatterns())
					}
					switch first, last := got.Stats[0].Plan.Kernel, got.Stats[len(got.Stats)-1].Plan.Kernel; {
					case first != core.KernelDelta:
						route = 1
					case last != core.KernelDelta:
						route = 2
					}
				}
				median := func(x []float64) float64 { slices.Sort(x); return x[len(x)/2] }
				d, c := median(deltaMs), median(coldMs)
				b.ReportMetric(d, "delta-ms")
				b.ReportMetric(c, "cold-ms")
				b.ReportMetric(d/c, "delta/cold")
				b.ReportMetric(route, "route")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}
