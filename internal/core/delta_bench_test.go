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
// route MineDelta took — 0 the pure delta path (its first pass counted
// the delta's SALES alone), 1 the fallback (a cold re-mine). The mix-N
// cells are bench/'s setmd-mix refresh for body seed N (a retail base of
// 46,873 transactions and a Δ of 469): mix-1 takes the pure path, mix-2
// the fallback.
//
//	go test -run '^$' -bench DeltaVsCold -benchtime 7x -cpu 1,2 ./internal/core/
func BenchmarkDeltaVsCold(b *testing.B) {
	retail := func(seed int64) func() *core.Dataset {
		return func() *core.Dataset { return gen.Retail(gen.DefaultRetail(seed)) }
	}
	mix := func(seed int64) func() *core.Dataset {
		return func() *core.Dataset {
			cfg := gen.DefaultRetail(seed)
			cfg.NumTransactions = 46873 + 469
			return gen.Retail(cfg)
		}
	}
	quest := func(scale float64, seed int64) func() *core.Dataset {
		return func() *core.Dataset { return gen.Quest(gen.T10I4D100K(scale, seed)) }
	}
	for _, ds := range []struct {
		name   string
		d      func() *core.Dataset
		minSup float64
		pcts   []int
	}{
		{"retail-1", retail(1), 0.001, nil}, {"retail-2", retail(2), 0.001, nil},
		{"retail-3", retail(3), 0.001, nil}, {"retail-4", retail(4), 0.001, nil},
		{"quest-1.0", quest(1.0, 1), 0.0025, nil}, {"quest-0.5", quest(0.5, 2), 0.0025, nil},
		{"mix-1", mix(1), 0.001, []int{1}}, {"mix-2", mix(2), 0.001, []int{1}},
	} {
		full, pcts := ds.d(), ds.pcts
		if pcts == nil {
			pcts = []int{1, 5, 10, 25}
		}
		for _, pct := range pcts {
			b.Run(fmt.Sprintf("%s/+%d%%", ds.name, pct), func(b *testing.B) {
				n := len(full.Transactions) * 100 / (100 + pct)
				base := &core.Dataset{Transactions: full.Transactions[:n]}
				delta := &core.Dataset{Transactions: full.Transactions[n:]}
				deltaSales := int64(delta.NumSalesRows())
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
					if got.Stats[0].RPrimeRows != deltaSales {
						route = 1
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
