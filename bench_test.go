// Benchmarks regenerating the paper's evaluation, one per table/figure
// (`setm-bench -exp` prints the same tables; README "Benchmarks" indexes
// the suites), plus the ablations. Run with:
//
//	go test -bench=. -benchmem
//
// The headline series:
//
//   - BenchmarkExecTimes/* is the Section 6.2 table: SETM wall-clock per
//     minimum support on the full-size retail stand-in. The paper's claim
//     is *stability* — the spread across a 50× support range stays under
//     about 2×.
//   - BenchmarkFig5And6Profile regenerates the Figures 5/6 iteration
//     profile at all five support levels.
//   - BenchmarkCompare/* is the algorithm shoot-out (SETM drivers,
//     nested-loop, AIS, Apriori) on a shared workload.
package setm_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"setm"
	"setm/internal/apriori"
	"setm/internal/baseline"
	"setm/internal/core"
	"setm/internal/costmodel"
	"setm/internal/experiments"
	"setm/internal/gen"
)

// Shared datasets, built once per binary run.
var (
	retailOnce sync.Once
	retailFull *core.Dataset // 46,873 transactions (paper size)
	retailMid  *core.Dataset // 8,000 transactions (for substrate-bound runs)
	questSmall *core.Dataset // ~3,000 transactions T10.I4
)

func datasets() (*core.Dataset, *core.Dataset, *core.Dataset) {
	retailOnce.Do(func() {
		retailFull = gen.Retail(gen.DefaultRetail(1))
		cfg := gen.DefaultRetail(1)
		cfg.NumTransactions = 8000
		retailMid = gen.Retail(cfg)
		questSmall = gen.Quest(gen.T10I4D100K(0.03, 7))
	})
	return retailFull, retailMid, questSmall
}

// BenchmarkExecTimes regenerates the Section 6.2 execution-time table:
// SETM on the retail data set at each published minimum support.
func BenchmarkExecTimes(b *testing.B) {
	full, _, _ := datasets()
	for _, ms := range experiments.PaperMinSupports {
		b.Run(fmt.Sprintf("minsup=%.1f%%", ms*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := setm.Mine(full, setm.Options{MinSupportFrac: ms})
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalPatterns() == 0 && ms <= 0.01 {
					b.Fatal("suspiciously empty result")
				}
			}
		})
	}
}

// BenchmarkFig5And6Profile regenerates the Figures 5/6 iteration profile
// (all five support levels in one run, as the figures present them).
func BenchmarkFig5And6Profile(b *testing.B) {
	full, _, _ := datasets()
	for i := 0; i < b.N; i++ {
		series, err := experiments.IterationProfile(full, experiments.PaperMinSupports)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 5 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkAnalysis regenerates the Section 3.2/4.3 analytical numbers
// (pure arithmetic; establishes they are computed, not hard-coded).
func BenchmarkAnalysis(b *testing.B) {
	w, p := costmodel.PaperWorkload(), costmodel.PaperDBParams()
	for i := 0; i < b.N; i++ {
		nl := costmodel.NestedLoopAnalysis(w, p, 0.005)
		sm := costmodel.SortMergeAnalysis(w, p, 3)
		if nl.TotalFetches != 2040000 || sm.HeadlineAccesses != 120000 {
			b.Fatal("analysis drifted")
		}
	}
}

// BenchmarkCompare is the algorithm shoot-out on a shared mid-size retail
// workload at 1% support: SETM (memory driver) against the in-paper
// nested-loop baseline and the external AIS/Apriori baselines.
func BenchmarkCompare(b *testing.B) {
	_, mid, _ := datasets()
	opts := core.Options{MinSupportFrac: 0.01}
	b.Run("setm-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineMemory(mid, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Mine(mid, opts, baseline.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ais", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apriori.MineAIS(mid, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apriori.MineApriori(mid, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDrivers is the substrate-overhead ablation: the same algorithm
// on the in-memory, paged-storage, and SQL substrates.
func BenchmarkDrivers(b *testing.B) {
	_, mid, _ := datasets()
	opts := core.Options{MinSupportFrac: 0.01}
	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineMemory(mid, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinePaged(mid, opts, core.PagedConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineSQL(mid, opts, core.SQLConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPoolSize measures buffer-pool sensitivity of the paged
// driver: SETM's sequential access pattern should make small pools nearly
// as good as large ones.
func BenchmarkAblationPoolSize(b *testing.B) {
	_, _, quest := datasets()
	opts := core.Options{MinSupportFrac: 0.01}
	for _, frames := range []int{16, 64, 1024} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MinePaged(quest, opts, core.PagedConfig{PoolFrames: frames}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelWorkers is the ladder behind the resident fan-out
// (internal/core's BenchmarkPassFanOut is the same pass by pass, and
// costmodel.ParallelMinRows quotes that): MineParallel across worker counts
// on the full retail data set at 0.1% support (the heaviest published
// setting) and, at 1 and 2 workers, on the bench's quest-resident workload
// — T10I4D100K at 0.25%, |R'_2| = 5.2M rows. One worker is the serial
// pass. Run with:
//
//	go test -run '^$' -bench ParallelWorkers -cpu 2
func BenchmarkParallelWorkers(b *testing.B) {
	full, _, _ := datasets()
	for _, ds := range []struct {
		name    string
		d       func() *core.Dataset
		opts    core.Options
		workers []int
	}{
		{"retail", func() *core.Dataset { return full }, core.Options{MinSupportFrac: 0.001}, []int{1, 2, 4, 8}},
		{"quest", func() *core.Dataset { return gen.Quest(gen.T10I4D100K(1.0, 1)) }, core.Options{MinSupportFrac: 0.0025}, []int{1, 2}},
	} {
		d := ds.d()
		for _, workers := range ds.workers {
			b.Run(fmt.Sprintf("%s/workers=%d", ds.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MineParallel(d, ds.opts, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineDatasets is the headline hot-path series used to track the
// flat-relation pipeline: Mine and MineParallel on the retail stand-in and
// the T10.I4 Quest workload, with allocation counts. Run with:
//
//	go test -bench 'MineDatasets' -benchmem
func BenchmarkMineDatasets(b *testing.B) {
	full, _, quest := datasets()
	for _, ds := range []struct {
		name string
		d    *core.Dataset
		opts core.Options
	}{
		{"retail", full, core.Options{MinSupportFrac: 0.001}},
		{"quest", quest, core.Options{MinSupportFrac: 0.01}},
	} {
		b.Run("mine/"+ds.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MineMemory(ds.d, ds.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("parallel/"+ds.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MineParallel(ds.d, ds.opts, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sql/"+ds.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MineSQL(ds.d, ds.opts, core.SQLConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("paged/"+ds.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MinePaged(ds.d, ds.opts, core.PagedConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPackedKernels compares the packed-key engine (the
// default substrate) against the generic int64 relation kernels on the
// headline retail workload — the PR 2 tentpole measured directly.
func BenchmarkAblationPackedKernels(b *testing.B) {
	full, _, _ := datasets()
	for _, cfg := range []struct {
		name    string
		generic bool
	}{
		{"packed", false},
		{"generic", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.Options{MinSupportFrac: 0.001, DisablePackedKernels: cfg.generic}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MineMemory(full, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuleGeneration measures the Section 5 step alone.
func BenchmarkRuleGeneration(b *testing.B) {
	full, _, _ := datasets()
	res, err := setm.Mine(full, setm.Options{MinSupportFrac: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := setm.Rules(res, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuestScaling sweeps data-set size on the Quest workload,
// establishing SETM's near-linear scaling in |R_1|.
func BenchmarkQuestScaling(b *testing.B) {
	for _, scale := range []float64{0.01, 0.03, 0.1} {
		d := gen.Quest(gen.T10I4D100K(scale, 7))
		b.Run(fmt.Sprintf("txns=%d", d.NumTransactions()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MineMemory(d, core.Options{MinSupportFrac: 0.01}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatasetIO is the SALES text codec on the paper-size retail data
// set (46,873 transactions, ~1 MB of text): MB/s of text read and written,
// and the SalesRows normalization a freshly read data set pays on its
// first mine. The reader takes a bytes.Reader as it takes an HTTP body,
// by growing one buffer, and allocates per doubling of its slices, not per
// line.
func BenchmarkDatasetIO(b *testing.B) {
	d := setm.NewRetailDataset(1)
	var text bytes.Buffer
	if err := setm.WriteDataset(&text, d); err != nil {
		b.Fatal(err)
	}
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := setm.ReadDataset(bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		b.ReportAllocs()
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := setm.WriteDataset(&out, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("salesrows", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := &setm.Dataset{Transactions: d.Transactions}
			if len(fresh.SalesRows()) != d.NumSalesRows() {
				b.Fatal("row count moved")
			}
		}
	})
}
