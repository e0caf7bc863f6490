// Cross-driver conformance suite: every SETM driver — in-memory,
// parallel, paged, SQL — must return identical count
// relations C_k on randomized datasets, and those must match the
// independent Apriori and AIS implementations at the same support
// threshold. This is the refactoring safety net the set-oriented
// formulation makes possible: the drivers share one pipeline, and this
// suite pins them to one answer.
package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"setm/internal/apriori"
	"setm/internal/core"
	"setm/internal/costmodel"
	"setm/internal/gen"
	"setm/internal/storage"
)

// conformanceCase describes one randomized dataset shape.
type conformanceCase struct {
	name    string
	seed    int64
	txns    int
	maxLen  int // max items per transaction (before dedup)
	nItems  int // catalogue size
	minSups []int64
	// kernels, when set, is the count kernel the reference driver must
	// report for passes 1..len(kernels).
	kernels []string
}

var conformanceCases = []conformanceCase{
	{name: "dense-small-catalogue", seed: 101, txns: 80, maxLen: 8, nItems: 12, minSups: []int64{2, 4, 8}},
	{name: "sparse-wide-catalogue", seed: 202, txns: 120, maxLen: 6, nItems: 60, minSups: []int64{2, 3}},
	{name: "long-baskets", seed: 303, txns: 50, maxLen: 14, nItems: 20, minSups: []int64{3, 6}},
	{name: "tiny", seed: 404, txns: 8, maxLen: 4, nItems: 6, minSups: []int64{1, 2}},
	{name: "single-item-baskets", seed: 505, txns: 60, maxLen: 1, nItems: 10, minSups: []int64{2}},
	{name: "duplicate-heavy", seed: 606, txns: 70, maxLen: 10, nItems: 5, minSups: []int64{5, 20}},
	{name: "unsupported-everything", seed: 707, txns: 30, maxLen: 5, nItems: 40, minSups: []int64{25}},
	// >= 2^13 distinct items: 14-bit codes, so C_1 counts on a 64 KiB
	// table while k=2's 28-bit key space is past the table cap and every
	// packed driver must take the sort kernel there.
	{name: "wide-catalogue", seed: 909, txns: 2500, maxLen: 8, nItems: 20000, minSups: []int64{3},
		kernels: []string{core.CountTable, core.CountSort}},
}

// conformanceDataset builds the deterministic random dataset of a case.
// Transaction IDs are deliberately non-contiguous: chunk boundaries and
// join windows are cut by tid value, not by position.
func conformanceDataset(c conformanceCase) *core.Dataset {
	rng := rand.New(rand.NewSource(c.seed))
	d := &core.Dataset{}
	id := int64(0)
	for i := 0; i < c.txns; i++ {
		id += 1 + int64(rng.Intn(7)) // gaps between trans_ids
		ln := 1 + rng.Intn(c.maxLen)
		items := make([]core.Item, ln)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(c.nItems))
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: id, Items: items})
	}
	return d
}

// minerFn is one algorithm under conformance test, returning its count
// relations.
type minerFn struct {
	name string
	mine func(d *core.Dataset, opts core.Options) (*core.Result, error)
}

// conformanceMiners lists every driver and baseline that must agree.
// The memory driver's packed-key default is the reference; the -generic
// entries run the one generic substrate, the serial flat reference
// (DisablePackedKernels), through MineMemory and through MinePaged's
// pool-owning entry point, pinning it and the packed kernels to one
// answer on every case.
func conformanceMiners() []minerFn {
	return []minerFn{
		{"memory-generic", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.DisablePackedKernels = true
			return core.MineMemory(d, o)
		}},
		{"parallel-3", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineParallel(d, o, 3)
		}},
		{"parallel-4", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineParallel(d, o, 4)
		}},
		{"paged", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			r, err := core.MinePaged(d, o, core.PagedConfig{PoolFrames: 48})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
		{"paged-generic", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.DisablePackedKernels = true
			r, err := core.MinePaged(d, o, core.PagedConfig{PoolFrames: 48})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
		{"paged-inram", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MemoryBudget = -1 // explicitly unbounded: never spills
			r, err := core.MinePaged(d, o, core.PagedConfig{PoolFrames: 48})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
		{"paged-tinybudget", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MemoryBudget = 1 << 14 // 16 KB: forces spilling on most cases
			r, err := core.MinePaged(d, o, core.PagedConfig{PoolFrames: 8})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
		{"auto", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineAuto(d, o)
		}},
		{"auto-tinybudget", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MemoryBudget = 1 << 14 // 16 KB: the planner must pick spilled regimes
			return core.MineAuto(d, o)
		}},
		{"auto-1worker", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.MaxWorkers = 1
			return core.MineAuto(d, o)
		}},
		{"sql", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineSQL(d, o, core.SQLConfig{})
		}},
		{"sql-8KiB", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			// The bounded-memory SQL path: external sorts and SortGroup.
			o.MemoryBudget = 8 << 10
			r, db, err := core.MineSQLOn(d, o, nil)
			if n := db.Pool().PinnedFrames(); err == nil && n != 0 {
				err = fmt.Errorf("%d frames pinned after the mine", n)
			}
			return r, err
		}},
		{"apriori", apriori.MineApriori},
		{"ais", apriori.MineAIS},
	}
}

func TestDriverConformance(t *testing.T) {
	for _, c := range conformanceCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := conformanceDataset(c)
			for _, ms := range c.minSups {
				opts := core.Options{MinSupportCount: ms}
				want, err := core.MineMemory(d, opts)
				if err != nil {
					t.Fatalf("memory: %v", err)
				}
				for i, kernel := range c.kernels {
					if i >= len(want.Stats) || want.Stats[i].Plan.Count != kernel {
						t.Fatalf("memory: pass %d count kernel is not %q (stats %+v)", i+1, kernel, want.Stats)
					}
				}
				for _, m := range conformanceMiners() {
					got, err := m.mine(d, opts)
					if err != nil {
						t.Fatalf("minsup=%d %s: %v", ms, m.name, err)
					}
					assertIdenticalCounts(t, fmt.Sprintf("minsup=%d %s", ms, m.name), want, got)
				}
			}
		})
	}
}

// TestDriverConformanceOptionMatrix sweeps MaxPatternLen across all four
// drivers (and both substrates of the memory driver), pinned to the
// generic memory driver as oracle. The cap may not change any count
// relation: it only truncates the iteration count.
func TestDriverConformanceOptionMatrix(t *testing.T) {
	matrixMiners := []minerFn{
		{"memory", core.MineMemory},
		{"parallel-3", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineParallel(d, o, 3)
		}},
		{"memory-generic", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			o.DisablePackedKernels = true
			return core.MineMemory(d, o)
		}},
		{"paged", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			r, err := core.MinePaged(d, o, core.PagedConfig{PoolFrames: 48})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
		{"sql", func(d *core.Dataset, o core.Options) (*core.Result, error) {
			return core.MineSQL(d, o, core.SQLConfig{})
		}},
	}
	for _, c := range []conformanceCase{conformanceCases[0], conformanceCases[2]} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := conformanceDataset(c)
			for _, maxLen := range []int{0, 1, 2, 3} {
				opts := core.Options{MinSupportCount: c.minSups[0], MaxPatternLen: maxLen}
				oracleOpts := opts
				oracleOpts.DisablePackedKernels = true
				want, err := core.MineMemory(d, oracleOpts)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range matrixMiners {
					label := fmt.Sprintf("maxlen=%d %s", maxLen, m.name)
					got, err := m.mine(d, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertIdenticalCounts(t, label, want, got)
				}
			}
		})
	}
}

// fanOutCase is one data shape the resident fan-out must get right:
// chunks are cut by position (through a transaction if need be), join
// windows by tid value, and every chunk of R'_k is counted and filtered
// where it was extended.
type fanOutCase struct {
	name string
	d    *core.Dataset
	opts core.Options
	// sortAt, when > 0, is a pass that must count on the sort kernel both
	// serially and at four workers.
	sortAt int
	// pairs marks a shape whose k=2 must count its pairs off SALES
	// serially and at every fan-out.
	pairs bool
	// minR1 is the |R_1| the shape needs (at least ParallelMinRows, or
	// nothing fans out).
	minR1 int64
}

func fanOutCases() []fanOutCase {
	rng := rand.New(rand.NewSource(4242))
	basket := func(id int64, n, nItems int) core.Transaction {
		items := make([]core.Item, n)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(nItems))
		}
		return core.Transaction{ID: id, Items: items}
	}
	unique := func(id int64, n int, from core.Item) core.Transaction {
		items := make([]core.Item, n)
		for j := range items {
			items[j] = from + core.Item(j)
		}
		return core.Transaction{ID: id, Items: items}
	}

	// One 800-item transaction in the middle of ~2,400 rows of small
	// baskets: longer than a chunk at W >= 4, so its rows straddle one cut
	// or several and every side must join the whole of it.
	big := &core.Dataset{}
	for i := 0; i < 600; i++ {
		if i == 300 {
			big.Transactions = append(big.Transactions, unique(int64(i), 800, 10_000))
		}
		big.Transactions = append(big.Transactions, basket(int64(1000+i), 2+rng.Intn(5), 12))
	}

	// Five transactions, seven workers: three items common to all (and
	// frequent at minsup 4) among 450 unique ones each.
	few := &core.Dataset{}
	for i := 0; i < 5; i++ {
		tx := unique(int64(i+1), 450, core.Item(1000*(i+1)))
		tx.Items = append(tx.Items, 1, 2, 3)
		few.Transactions = append(few.Transactions, tx)
	}

	// Negative, non-contiguous, unsorted-on-arrival tids.
	signed := &core.Dataset{}
	for i, id := 0, int64(-40_000); i < 900; i++ {
		id += 1 + int64(rng.Intn(90))
		signed.Transactions = append(signed.Transactions, basket(id, 1+rng.Intn(7), 15))
	}
	rng.Shuffle(len(signed.Transactions), func(i, j int) {
		signed.Transactions[i], signed.Transactions[j] = signed.Transactions[j], signed.Transactions[i]
	})

	// The first 1,200 transactions hold one item each: the first chunk of
	// R_1 extends to zero R'_2 rows at every W.
	hollow := &core.Dataset{}
	for i := 0; i < 1200; i++ {
		hollow.Transactions = append(hollow.Transactions, basket(int64(i+1), 1, 9))
	}
	for i := 0; i < 500; i++ {
		hollow.Transactions = append(hollow.Transactions, basket(int64(5000+3*i), 3+rng.Intn(4), 9))
	}

	wide := conformanceDataset(conformanceCase{seed: 910, txns: 700, maxLen: 8, nItems: 20000})

	retail := gen.DefaultRetail(3)
	retail.NumTransactions = 8000

	return []fanOutCase{
		{name: "quest", d: gen.Quest(gen.T10I4D100K(0.02, 5)), opts: core.Options{MinSupportFrac: 0.01}, minR1: 8 * costmodel.ParallelMinRows},
		{name: "retail", d: gen.Retail(retail), opts: core.Options{MinSupportFrac: 0.002}, minR1: 8 * costmodel.ParallelMinRows},
		{name: "transaction-split-across-chunks", d: big, opts: core.Options{MinSupportCount: 2}, pairs: true},
		{name: "more-workers-than-transactions", d: few, opts: core.Options{MinSupportCount: 4}},
		{name: "negative-sparse-tids", d: signed, opts: core.Options{MinSupportCount: 3}, pairs: true},
		{name: "chunk-with-no-extensions", d: hollow, opts: core.Options{MinSupportCount: 5}, pairs: true},
		{name: "sort-counted-pass", d: wide, opts: core.Options{MinSupportCount: 2}, sortAt: 2},
	}
}

// TestParallelFanOutConformance pins the one fan-out to the serial pass:
// at 2, 3, 4 and 7 workers the counts, every pass's |R'_k|, |R_k| and
// |C_k|, and the retained border are MineMemory's, and every packed pass
// reports the chunks it ran with a count kernel — packed/resident/Nw, or
// 1w where R_{k-1} is under costmodel.ParallelMinRows rows and the pass
// stays one chunk — pairs at k=2 for the shapes that mark it, one of
// which cuts a basket across chunks.
func TestParallelFanOutConformance(t *testing.T) {
	for _, c := range fanOutCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.RetainBorder = true
			want, err := core.MineMemory(c.d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if r1 := want.Stats[0].RPrimeRows; r1 < max(c.minR1, costmodel.ParallelMinRows) {
				t.Fatalf("setup: |R_1| = %d rows, too few to fan out as the case means to", r1)
			}
			if c.sortAt > 0 && want.Stats[c.sortAt-1].Plan.Count != core.CountSort {
				t.Fatalf("setup: serial pass %d counts by %q, want sort", c.sortAt, want.Stats[c.sortAt-1].Plan.Count)
			}
			if c.pairs && want.Stats[1].Plan.Count != core.CountPairs {
				t.Fatalf("setup: serial k=2 counts by %q, want pairs", want.Stats[1].Plan.Count)
			}
			for _, w := range []int{2, 3, 4, 7} {
				label := fmt.Sprintf("%dw", w)
				got, err := core.MineParallel(c.d, opts, w)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertIdenticalCounts(t, label, want, got)
				if len(got.Stats) != len(want.Stats) {
					t.Fatalf("%s: %d passes, want %d", label, len(got.Stats), len(want.Stats))
				}
				for i, st := range got.Stats {
					ref := want.Stats[i]
					if st.RPrimeRows != ref.RPrimeRows || st.RRows != ref.RRows || st.CCount != ref.CCount {
						t.Errorf("%s k=%d: |R'|=%d |R|=%d |C|=%d, want %d/%d/%d", label, st.K,
							st.RPrimeRows, st.RRows, st.CCount, ref.RPrimeRows, ref.RRows, ref.CCount)
					}
					if st.Plan.Kernel != core.KernelPacked {
						continue // past the packed key: the serial flat reference
					}
					chunks := w
					if passInputRows(want.Stats, i) < costmodel.ParallelMinRows {
						chunks = 1
					}
					for _, kernel := range []string{core.CountTable, core.CountSort, core.CountPairs} {
						if st.Plan.Count == kernel && st.Plan.String() != fmt.Sprintf("packed/resident/%dw/%s", chunks, kernel) {
							t.Errorf("%s k=%d: plan %q", label, st.K, st.Plan)
						}
					}
					if st.Plan.Count == "" || (w == 4 && st.K == c.sortAt && st.Plan.Count != core.CountSort) ||
						(c.pairs && st.K == 2 && st.Plan.Count != core.CountPairs) {
						t.Errorf("%s k=%d: plan %q names the wrong count kernel", label, st.K, st.Plan)
					}
				}
				if (want.Border == nil) != (got.Border == nil) {
					t.Fatalf("%s: border retained = %v, serial %v", label, got.Border != nil, want.Border != nil)
				}
				if want.Border != nil {
					core.AssertSameBorder(t, want.Border, got.Border)
				}
			}
		})
	}
}

// passInputRows is the relation pass i of stats cut into chunks: SALES
// (|R_1|) at k = 1, R_{k-1} after it.
func passInputRows(stats []core.IterationStat, i int) int64 {
	if i == 0 {
		return stats[0].RPrimeRows
	}
	return stats[i-1].RRows
}

// TestMineAutoPlanWorkers: MineAuto's planner gives each worker of a
// resident pass at least costmodel.ParallelMinRows rows of R_{k-1}, and
// the plan reports the chunks the pass ran: exactly
// min(MaxWorkers, max(1, |R_{k-1}|/ParallelMinRows)), so never more than
// max(1, |R_{k-1}|/ParallelMinRows), on quest and retail at two and
// eight workers.
func TestMineAutoPlanWorkers(t *testing.T) {
	retail := gen.DefaultRetail(3)
	retail.NumTransactions = 8000
	for _, c := range []struct {
		name string
		d    *core.Dataset
		opts core.Options
	}{
		{"quest", gen.Quest(gen.T10I4D100K(0.02, 5)), core.Options{MinSupportFrac: 0.005}},
		{"retail", gen.Retail(retail), core.Options{MinSupportFrac: 0.002}},
	} {
		for _, maxW := range []int{2, 8} {
			opts := c.opts
			opts.MaxWorkers = maxW
			got, err := core.MineAuto(c.d, opts)
			if err != nil {
				t.Fatal(err)
			}
			fanned := false
			for i, st := range got.Stats {
				rows := passInputRows(got.Stats, i)
				want := int(min(int64(maxW), max(1, rows/costmodel.ParallelMinRows)))
				if st.Plan.Workers != want {
					t.Errorf("%s at %d workers, k=%d over |R_{k-1}| = %d rows: ran %s, want %dw",
						c.name, maxW, st.K, rows, st.Plan, want)
				}
				fanned = fanned || st.Plan.Workers > 1
			}
			if !fanned {
				t.Errorf("%s at %d workers: no pass fanned out", c.name, maxW)
			}
		}
	}
}

// TestWideCataloguePacked: on the wide-catalogue case with every pattern
// frequent (baskets of up to 8 items, 14-bit codes, so a bit-packed key
// holds four), every pass of every driver runs the packed kernels past
// k = 4 as before it, with the flat reference's per-pass |R'_k|, |R_k|
// and |C_k|, and the counts are the independent AIS miner's (Apriori's
// candidate join is quadratic in |C_k| and takes a minute and a half at
// minsup 1; TestDriverConformance pins parallel-4 to it on this data set
// at minsup 3). Serial passes read packed/resident/1w, fanned out
// packed/resident/4w (1w under ParallelMinRows rows); under a 16 KiB budget — MinePaged, and
// MineAutoMonitored twice on one caller-owned pool — packed/spilled/1w,
// with nothing pinned and no page the first mine's runs held left
// unrecycled (the second mine grows the store by none).
func TestWideCataloguePacked(t *testing.T) {
	c := conformanceCases[len(conformanceCases)-1]
	if c.name != "wide-catalogue" {
		t.Fatalf("setup: last conformance case is %q", c.name)
	}
	d := conformanceDataset(c)
	opts := core.Options{MinSupportCount: 1}
	generic := opts
	generic.DisablePackedKernels = true
	want, err := core.MineMemory(d, generic)
	if err != nil {
		t.Fatal(err)
	}
	if last := want.Stats[len(want.Stats)-1].K; last <= 5 {
		t.Fatalf("setup: the mine ends at k = %d, never deep past k = 4", last)
	}
	oracle, err := apriori.MineAIS(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalCounts(t, "reference vs ais", oracle, want)
	budgeted := opts
	budgeted.MemoryBudget = 16 << 10
	store := storage.NewMemStore()
	pool := storage.NewPool(store, 8)
	storePages := 0
	for _, m := range []struct {
		name  string
		plans []string // what a pass's plan may be, count kernel aside
		mine  func() (*core.Result, error)
	}{
		{"memory", []string{"packed/resident/1w"}, func() (*core.Result, error) { return core.MineMemory(d, opts) }},
		// A pass under ParallelMinRows rows of R_{k-1} runs, and reports, one chunk.
		{"parallel-4", []string{"packed/resident/4w", "packed/resident/1w"}, func() (*core.Result, error) { return core.MineParallel(d, opts, 4) }},
		{"paged-16KiB", []string{"packed/spilled/1w"}, func() (*core.Result, error) {
			r, err := core.MinePaged(d, budgeted, core.PagedConfig{PoolFrames: 8})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
		// The planner picks each pass's regime; budgeted, it stays serial.
		{"auto-16KiB", []string{"packed/spilled/1w", "packed/resident/1w"}, func() (*core.Result, error) {
			return core.MineAutoMonitored(context.Background(), d, budgeted, pool, nil)
		}},
		{"auto-16KiB-again", []string{"packed/spilled/1w", "packed/resident/1w"}, func() (*core.Result, error) {
			storePages = store.NumPages()
			return core.MineAutoMonitored(context.Background(), d, budgeted, pool, nil)
		}},
	} {
		got, err := m.mine()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		assertSamePasses(t, m.name, want, got)
		for _, st := range got.Stats {
			// The count kernel is chosen per pass (and per chunk).
			if p := st.Plan; p.Count == "" || !slices.Contains(m.plans, strings.TrimSuffix(p.String(), "/"+p.Count)) {
				t.Errorf("%s k=%d: plan %q, want one of %v/*", m.name, st.K, p, m.plans)
			}
		}
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the budgeted mines", n)
	}
	if got := store.NumPages(); got != storePages {
		t.Errorf("the second budgeted mine grew the store %d -> %d pages: the first left runs allocated", storePages, got)
	}
}

// TestWideCatalogueSpilled is the budget past the bit-packed width: a
// catalogue of exactly 2^16 items (16-bit codes, so a bit-packed key
// holds four) mined to k = 6 under an 8 MiB budget. 2,000 baskets hold
// the same nine common items and the other 65,527 items are one-item
// baskets. The planner spills a pass whose modeled footprint, ~40 B per
// candidate row, outgrows the budget: passes 5 and 6 each project 252,000
// rows, ~10 MB. MaxPatternLen ends the mine there, before the passes
// shrink back under it. MineAuto then runs both spilled, as MinePaged runs
// every pass: packed/spilled/* past k = 4, with the flat reference's
// counts and per-pass cardinalities.
func TestWideCatalogueSpilled(t *testing.T) {
	d := &core.Dataset{}
	common := []core.Item{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := 0; i < 2000; i++ {
		d.Transactions = append(d.Transactions, core.Transaction{ID: int64(len(d.Transactions) + 1), Items: common})
	}
	for it := core.Item(1000); it < core.Item(1000+1<<16-len(common)); it++ {
		d.Transactions = append(d.Transactions, core.Transaction{ID: int64(len(d.Transactions) + 1), Items: []core.Item{it}})
	}
	opts := core.Options{MinSupportCount: 2, MaxPatternLen: 6}
	generic := opts
	generic.DisablePackedKernels = true
	want, err := core.MineMemory(d, generic)
	if err != nil {
		t.Fatal(err)
	}
	if want.MaxLen() != 6 {
		t.Fatalf("setup: MaxLen %d, want 6", want.MaxLen())
	}
	budgeted := opts
	budgeted.MemoryBudget = 8 << 20
	for name, mine := range map[string]func() (*core.Result, error){
		"auto-8MiB": func() (*core.Result, error) { return core.MineAuto(d, budgeted) },
		"paged-8MiB": func() (*core.Result, error) {
			r, err := core.MinePaged(d, budgeted, core.PagedConfig{})
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		},
	} {
		got, err := mine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSamePasses(t, name, want, got)
		for _, st := range got.Stats {
			p := st.Plan
			if p.Kernel != core.KernelPacked || (st.K > 4 && (p.Regime != core.RegimeSpilled || p.Count == "")) {
				t.Errorf("%s k=%d: plan %q", name, st.K, p)
			}
		}
	}
}

// assertSamePasses checks got against the reference want: identical
// counts and, pass by pass, the same |R'_k|, |R_k| and |C_k|.
func assertSamePasses(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	assertIdenticalCounts(t, label, want, got)
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d passes, want %d", label, len(got.Stats), len(want.Stats))
	}
	for i, st := range got.Stats {
		ref := want.Stats[i]
		if st.RPrimeRows != ref.RPrimeRows || st.RRows != ref.RRows || st.CCount != ref.CCount {
			t.Errorf("%s k=%d: |R'|=%d |R|=%d |C|=%d, want %d/%d/%d", label, st.K,
				st.RPrimeRows, st.RRows, st.CCount, ref.RPrimeRows, ref.RRows, ref.CCount)
		}
	}
}

// pagedSpillRetail is TestPagedSpillConformanceRetail's fixture: 4,000
// retail transactions at minsup 1%, mined by MinePaged under a 32 KiB
// budget over a 16-frame pool.
func pagedSpillRetail(t *testing.T) (d *core.Dataset, opts core.Options, got *core.PagedResult) {
	t.Helper()
	cfg := gen.DefaultRetail(7)
	cfg.NumTransactions = 4000
	d = gen.Retail(cfg)
	opts = core.Options{MinSupportFrac: 0.01}
	spillOpts := opts
	spillOpts.MemoryBudget = 32 << 10
	got, err := core.MinePaged(d, spillOpts, core.PagedConfig{PoolFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	return d, opts, got
}

// TestMinePagedRPagesPopulated pins the page footprints MinePaged reports
// (‖R_k‖ and ‖R'_k‖ per pass, 16-byte rows in 4 KiB pages, at least one
// page; ‖R'_1‖ is ‖R_1‖) on the paper example and on the spilled retail
// run — the inputs of the Section 4.3 bound PagedIOCheck computes.
func TestMinePagedRPagesPopulated(t *testing.T) {
	paper, err := core.MinePaged(core.PaperExample(), core.Options{MinSupportFrac: 0.3}, core.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, retail := pagedSpillRetail(t)
	for _, c := range []struct {
		name          string
		got           *core.PagedResult
		rPages, prime []int
	}{
		{"paper", paper, []int{1, 1, 1, 1}, []int{1, 1, 1, 1}},
		{"retail", retail, []int{39, 12, 1, 1}, []int{39, 38, 9, 1}},
	} {
		if !slices.Equal(c.got.RPages, c.rPages) || !slices.Equal(c.got.RPrimePages, c.prime) {
			t.Errorf("%s: RPages %v, RPrimePages %v; want %v, %v", c.name, c.got.RPages, c.got.RPrimePages, c.rPages, c.prime)
		}
	}
}

// TestPagedSpillConformanceRetail pins the out-of-core packed pipeline
// to Mine on the retail fixture with a budget small enough that every
// sort-counted iteration genuinely spills (≥ 2 sorted runs written), the
// regime the paper's disk-resident analysis describes. On the fixture's
// 59-item catalogue every pass's key space — 2^(k·6) points through k=2,
// |C_{k-1}|·2^6 rank-coded after — fits a counting table inside the
// 32 KiB budget's share, so no pass writes key runs. Its wide twin adds
// 4,096 singleton transactions of unseen items: 13-bit codes put k=1's
// table past the share, k=2 past the table cap and k=3's 34·2^13 points
// past the share, so the bounded radix runs and their k-way merge are
// exercised there.
func TestPagedSpillConformanceRetail(t *testing.T) {
	d, opts, got := pagedSpillRetail(t)
	want, err := core.MineMemory(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalCounts(t, "paged-spill-retail", want, got.Result)
	if got.IO.Accesses() == 0 {
		t.Error("no page I/O: the budget did not force the out-of-core regime")
	}
	for _, st := range got.Stats {
		if st.Plan.Count != core.CountTable {
			t.Errorf("k=%d counted by %q; its key space should fit the table", st.K, st.Plan.Count)
		}
	}

	wide := &core.Dataset{Transactions: slices.Clone(d.Transactions)}
	for i := 0; i < 1<<12; i++ {
		wide.Transactions = append(wide.Transactions, core.Transaction{ID: int64(1e6 + i), Items: []core.Item{core.Item(1e6 + i)}})
	}
	wideOpts := core.Options{MinSupportCount: want.MinSupport}
	if want, err = core.MineMemory(wide, wideOpts); err != nil {
		t.Fatal(err)
	}
	wideOpts.MemoryBudget = 32 << 10
	if got, err = core.MinePaged(wide, wideOpts, core.PagedConfig{PoolFrames: 16}); err != nil {
		t.Fatal(err)
	}
	assertIdenticalCounts(t, "paged-spill-retail-wide", want, got.Result)
	// Every sort-counted iteration that carried candidate rows must have
	// spilled at least two runs — otherwise the budget is not exercising
	// the k-way merge and the test is vacuous.
	sortPasses := 0
	for _, st := range got.Stats {
		switch st.Plan.Count {
		case core.CountSort:
			if st.K == 2 || st.K == 3 {
				sortPasses++
			}
			if st.RRows > 0 && st.RunsSpilled < 2 {
				t.Errorf("k=%d: only %d runs spilled (want >= 2); budget too generous", st.K, st.RunsSpilled)
			}
		case core.CountTable:
		default:
			t.Errorf("k=%d: plan %q names no count kernel", st.K, st.Plan)
		}
		if st.RunsSpilled > 0 && st.SpillBytes == 0 {
			t.Errorf("k=%d: %d runs spilled but zero spill bytes accounted", st.K, st.RunsSpilled)
		}
	}
	if sortPasses < 2 {
		t.Errorf("%d iterations took the sort kernel, want k=2 and k=3: the k-way merge is not covered", sortPasses)
	}
}

// assertIdenticalCounts requires bit-identical count relations: same
// number of iterations, same patterns in the same lexicographic order,
// same counts.
func assertIdenticalCounts(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if got.MinSupport != want.MinSupport {
		t.Errorf("%s: MinSupport = %d, want %d", label, got.MinSupport, want.MinSupport)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d iterations, want %d", label, len(got.Counts), len(want.Counts))
	}
	for k := 1; k <= len(want.Counts); k++ {
		cw, cg := want.C(k), got.C(k)
		if len(cw) != len(cg) {
			t.Errorf("%s: |C_%d| = %d, want %d", label, k, len(cg), len(cw))
			continue
		}
		for i := range cw {
			if cw[i].Count != cg[i].Count || !sameItems(cw[i].Items, cg[i].Items) {
				t.Errorf("%s: C_%d[%d] = %v:%d, want %v:%d", label, k, i,
					cg[i].Items, cg[i].Count, cw[i].Items, cw[i].Count)
			}
		}
	}
	// The per-pass relation sizes (Figures 5–6) are the algorithm's, not
	// the driver's: every SETM driver reports the oracle's |R'_k| and
	// |R_k|, so |R_1| = |SALES| everywhere. Apriori and AIS count other
	// relations and record no plan.
	if !isSETM(want) || !isSETM(got) {
		return
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d passes, want %d", label, len(got.Stats), len(want.Stats))
	}
	for i, w := range want.Stats {
		if g := got.Stats[i]; g.RPrimeRows != w.RPrimeRows || g.RRows != w.RRows {
			t.Errorf("%s: k=%d |R'|=%d |R|=%d, want %d/%d", label, w.K,
				g.RPrimeRows, g.RRows, w.RPrimeRows, w.RRows)
		}
	}
}

// isSETM reports whether r came from a SETM driver, which records each
// pass's plan.
func isSETM(r *core.Result) bool {
	return len(r.Stats) > 0 && r.Stats[0].Plan.Kernel != ""
}

func sameItems(a, b []core.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRankCodedPlans pins where rank-coded keys put the count step. A
// k-pattern's key is (rank of its prefix in C_{k-1}, last item code)
// from k=3 on, so the key space is |C_{k-1}|·2^bits points, not
// 2^(k·bits). On a quest fixture over 128 items (7-bit codes) every pass
// from k=3 then counts on the table, and k=2 counts its pairs straight
// off SALES — serial, fanned out over two workers (whose chunks share
// C_{k-1}'s rank directory), and spilled under an 8 MiB budget. MinePaged
// keeps the materialized k=2, which counts R'_2 on the table. Singleton
// transactions of unseen items widen the codes to 12 bits without adding
// a candidate: |C_2|·2^12 points (|C_2| is 7,005) exceed the table cap,
// and k=3 sorts; so does k=2, whose 2^24-cell table the kernel rule
// refuses for its ~419k pairs. Every case is pinned to the flat reference, pass by
// pass.
func TestRankCodedPlans(t *testing.T) {
	cfg := gen.T10I4D100K(1, 1)
	cfg.NumItems, cfg.NumTransactions = 128, 8000
	d := gen.Quest(cfg)
	opts := core.Options{MinSupportCount: 32}
	flatOpts := opts
	flatOpts.DisablePackedKernels = true
	want, err := core.MineMemory(d, flatOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Stats) < 4 {
		t.Fatalf("fixture mines %d passes, want k >= 4 so two passes are rank-coded", len(want.Stats))
	}
	check := func(label string, got *core.Result, regime, count2 string) {
		t.Helper()
		assertIdenticalCounts(t, label, want, got)
		for _, st := range got.Stats {
			count := core.CountTable
			if st.K == 2 {
				count = count2
			}
			if st.K >= 2 && (st.Plan.Kernel != core.KernelPacked || st.Plan.Regime != regime || st.Plan.Count != count) {
				t.Errorf("%s: k=%d ran %s, want packed/%s/*/%s", label, st.K, st.Plan, regime, count)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		o := opts
		o.MaxWorkers = workers
		got, err := core.MineAuto(d, o)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("resident-%dw", workers), got, core.RegimeResident, core.CountPairs)
		if workers == 2 && got.Stats[1].Plan.Workers != 2 {
			t.Errorf("k=2 ran %s: the two-worker case did not fan out", got.Stats[1].Plan)
		}
	}
	spillOpts := opts
	spillOpts.MemoryBudget = 8 << 20
	spilled, err := core.MinePaged(d, spillOpts, core.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check("paged-8MiB", spilled.Result, core.RegimeSpilled, core.CountTable)
	// MineAuto under the same budget plans each pass by its footprint, so
	// only its k=2 is pinned: the pairs pass streaming SALES.
	autoSpilled, err := core.MineAuto(d, spillOpts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalCounts(t, "auto-8MiB", want, autoSpilled)
	if st := autoSpilled.Stats[1]; st.Plan.String() != "packed/spilled/1w/pairs" {
		t.Errorf("auto-8MiB: k=2 ran %s, want packed/spilled/1w/pairs", st.Plan)
	}

	const bits, fillers = 12, 1<<12 - 128 // 4,096 distinct items
	wide := &core.Dataset{Transactions: slices.Clone(d.Transactions)}
	for i := 0; i < fillers; i++ {
		wide.Transactions = append(wide.Transactions, core.Transaction{ID: int64(1e6 + i), Items: []core.Item{core.Item(1e6 + i)}})
	}
	if want, err = core.MineMemory(wide, flatOpts); err != nil {
		t.Fatal(err)
	}
	if c2 := len(want.C(2)); c2<<bits <= 1<<24 {
		t.Fatalf("setup: |C_2|·2^%d = %d points is within the table cap", bits, c2<<bits)
	}
	got, err := core.MineAuto(wide, core.Options{MinSupportCount: 32, MaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalCounts(t, "wide", want, got)
	// 2·12 bits is the table cap itself, but a 64 MiB table for ~419k
	// pairs fails the kernel rule: k=2 keeps the materialized, sorted pass.
	for k, count := range map[int]string{2: core.CountSort, 3: core.CountSort} {
		if st := got.Stats[k-1]; st.Plan.Kernel != core.KernelPacked || st.Plan.Count != count {
			t.Errorf("wide: k=%d ran %s, want packed/*/%s", k, st.Plan, count)
		}
	}
}
