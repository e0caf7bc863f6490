package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/xsort"
)

// execDataset builds a deterministic skewed dataset big enough that
// small budgets genuinely spill (gen.Retail lives above core and cannot
// be imported from an in-package test).
func execDataset(seed int64, txns int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	id := int64(0)
	for i := 0; i < txns; i++ {
		id += 1 + int64(rng.Intn(4))
		n := 1 + rng.Intn(6)
		items := make([]Item, n)
		for j := range items {
			// Zipf-ish skew so multi-item patterns survive the filter.
			items[j] = Item(1 + rng.Intn(8) + rng.Intn(7)*rng.Intn(3))
		}
		d.Transactions = append(d.Transactions, Transaction{ID: id, Items: items})
	}
	return d
}

// runPagedPlan mines d under MinePaged's Section 4.3 plan on a pool of
// frames frames the test can inspect afterwards.
func runPagedPlan(d *Dataset, opts Options, frames int) (*Result, *storage.Pool, error) {
	pool := storage.NewPool(storage.NewMemStore(), frames)
	st := newExecStepper(d, opts, PagedConfig{PoolFrames: frames})
	st.paperPaged = true
	st.attachPool(pool)
	res, err := runPipeline(context.Background(), d, opts, st, nil, nil)
	return res, pool, err
}

// TestBudgetedPassesRunSerial: a budget-bounded pass is one worker,
// whatever Options.MaxWorkers asks for, under MinePaged's plan and under
// MineAuto's. Every pass recorded as spilled — and every pass that reads
// pages, such as a resident plan that still streams its input R_{k-1}
// from a run — must record Workers == 1, the counts must equal
// MineMemory's, and the spill accounting (runs, bytes, page I/O per pass)
// must not depend on the worker setting at all.
func TestBudgetedPassesRunSerial(t *testing.T) {
	d := execDataset(5, 3000)
	opts := Options{MinSupportFrac: 0.01}
	want, err := MineMemory(d, opts)
	if err != nil {
		t.Fatal(err)
	}

	type spillAcct struct{ runs, bytes, pageIO int64 }
	check := func(label string, got *Result, pool *storage.Pool, mustSpill bool) []spillAcct {
		t.Helper()
		assertSameCounts(t, label, want, got)
		if n := pool.PinnedFrames(); n != 0 {
			t.Errorf("%s: %d pinned frames left", label, n)
		}
		var acct []spillAcct
		var runs int64
		for _, st := range got.Stats {
			if (st.Plan.Regime == RegimeSpilled || st.PageIO > 0) && st.Plan.Workers != 1 {
				t.Errorf("%s k=%d: plan %s with %d page I/Os, want one worker", label, st.K, st.Plan, st.PageIO)
			}
			runs += st.RunsSpilled
			acct = append(acct, spillAcct{st.RunsSpilled, st.SpillBytes, st.PageIO})
		}
		if mustSpill && runs == 0 {
			t.Errorf("%s: tiny budget never spilled", label)
		}
		return acct
	}
	sameAcct := func(label string, a, b []spillAcct) {
		t.Helper()
		if !slices.Equal(a, b) {
			t.Errorf("%s: spill accounting depends on the worker setting:\n%v\n%v", label, a, b)
		}
	}

	for _, budget := range []int64{16 << 10, 256 << 10} {
		var first []spillAcct
		for _, workers := range []int{1, 2, 3, 7} {
			o := opts
			o.MemoryBudget, o.MaxWorkers = budget, workers
			label := fmt.Sprintf("paged plan maxworkers=%d budget=%d", workers, budget)
			got, pool, err := runPagedPlan(d, o, 64)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			acct := check(label, got, pool, budget == 16<<10)
			if first == nil {
				first = acct
			}
			sameAcct(label, first, acct)
		}
	}

	// MineAuto: at a budget every pass exceeds, and at the largest budget
	// whose appender share R_{n-1} outgrows by a row: the pass before last
	// writes it as a run, and the last pass, whose footprint fits, is a
	// resident plan over that spilled input.
	lastIn := want.Stats[len(want.Stats)-2].RRows
	flip := 4*costmodel.PackedRowBytes*lastIn - 1
	for _, budget := range []int64{8 << 10, flip} {
		var first []spillAcct
		for _, maxWorkers := range []int{1, 2, 4} {
			o := opts
			o.MemoryBudget, o.MaxWorkers = budget, maxWorkers
			label := fmt.Sprintf("auto maxworkers=%d budget=%d", maxWorkers, budget)
			pool := storage.NewPool(storage.NewMemStore(), 64)
			got, err := MineAutoMonitored(context.Background(), d, o, pool, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Stats[0].Plan.Regime != RegimeSpilled {
				t.Errorf("%s: k=1 plan %s, want spilled", label, got.Stats[0].Plan)
			}
			if last := got.Stats[len(got.Stats)-1]; budget == flip && (last.Plan.Regime != RegimeResident || last.PageIO == 0) {
				t.Errorf("%s: last pass %s with %d page I/Os, want a resident plan streaming spilled inputs", label, last.Plan, last.PageIO)
			}
			acct := check(label, got, pool, budget == 8<<10)
			if first == nil {
				first = acct
			}
			sameAcct(label, first, acct)
		}
	}
}

// TestAutoRetailFixtureConformance pins MineAuto (default, tiny-budget,
// and single-worker plans) to Mine on the retail fixture — the
// bit-identical contract of the adaptive executor.
func TestAutoRetailFixtureConformance(t *testing.T) {
	d := execDataset(7, 4000)
	opts := Options{MinSupportFrac: 0.01}
	want, err := MineMemory(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"auto", func(*Options) {}},
		{"auto-tinybudget", func(o *Options) { o.MemoryBudget = 32 << 10 }},
		{"auto-1worker", func(o *Options) { o.MaxWorkers = 1 }},
		{"auto-4workers", func(o *Options) { o.MaxWorkers = 4; o.MemoryBudget = 64 << 10 }},
	}
	for _, v := range variants {
		o := opts
		v.mod(&o)
		got, err := MineAuto(d, o)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		assertSameCounts(t, v.name, want, got)
	}
}

// TestAutoRecordsPlans: every iteration must carry a valid plan, the
// regime must be spilled under a tiny budget and resident without one,
// and a late small iteration under a moderate budget must flip back to
// resident — the adaptivity the executor exists for.
func TestAutoRecordsPlans(t *testing.T) {
	d := execDataset(3, 4000)

	res, err := MineAuto(d, Options{MinSupportFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stats {
		if st.Plan.Kernel != KernelPacked || st.Plan.Regime != RegimeResident || st.Plan.Workers < 1 {
			t.Errorf("unbounded k=%d: plan = %+v, want packed/resident", st.K, st.Plan)
		}
	}

	tiny, err := MineAuto(d, Options{MinSupportFrac: 0.01, MemoryBudget: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Stats[0].Plan.Regime != RegimeSpilled {
		t.Errorf("8 KB budget k=1: regime = %q, want spilled", tiny.Stats[0].Plan.Regime)
	}

	// A budget the early big iterations' modeled footprints exceed but
	// the final small one's fits: the planner must flip spilled ->
	// resident mid-run. The budget is derived from the model itself (the
	// final iteration's projected footprint plus one byte), so the flip
	// is exactly the ChoosePlan boundary the unit tests pin.
	if len(res.Stats) < 3 {
		t.Fatalf("only %d iterations", len(res.Stats))
	}
	total := 0
	for _, tx := range d.Transactions {
		total += len(tx.Items)
	}
	avgBasket := float64(total) / float64(len(d.Transactions))
	lastIn := res.Stats[len(res.Stats)-2].RRows // |R_{k-1}| feeding the final pass
	budget := costmodel.PackedIterFootprint(costmodel.EstRPrimeRows(lastIn, avgBasket), 0) + 1
	mid, err := MineAuto(d, Options{MinSupportFrac: 0.01, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Stats[0].Plan.Regime != RegimeSpilled {
		t.Errorf("budget=%d k=1: regime = %q, want spilled", budget, mid.Stats[0].Plan.Regime)
	}
	last := mid.Stats[len(mid.Stats)-1]
	if last.Plan.Regime != RegimeResident {
		t.Errorf("budget=%d k=%d (R'=%d): regime = %q, want resident",
			budget, last.K, last.RPrimeRows, last.Plan.Regime)
	}
	assertSameCounts(t, "auto-flip-budget", res, mid)
}

// TestFixedDriversRecordPlans pins every pass's plan in the stats:
// MineMemory is packed/resident/1w, on the paper's example and on
// pairsFixture, whose 10,800 SALES rows MineAuto fans out; MinePaged is
// spilled under its default budget; MineSQL's passes are SQL. MineAuto at
// four workers runs passes 1 and 2 at 4w, and at eight at 5w: one worker
// per costmodel.ParallelMinRows rows of R_1, counted after each basket's
// duplicate items are dropped (pairsFixture's baskets hold 24,000 items).
func TestFixedDriversRecordPlans(t *testing.T) {
	// plans checks passes 1 to upTo (0: every pass), count kernel aside.
	plans := func(label string, res *Result, err error, upTo int, want string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, st := range res.Stats {
			if p := st.Plan; (upTo == 0 || st.K <= upTo) && strings.TrimSuffix(p.String(), "/"+p.Count) != want {
				t.Errorf("%s k=%d: plan %s, want %s/*", label, st.K, p, want)
			}
		}
	}

	d := PaperExample()
	opts := Options{MinSupportFrac: 0.3}
	res, err := MineMemory(d, opts)
	plans("MineMemory", res, err, 0, "packed/resident/1w")
	paged, err := MinePaged(d, opts, PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plans("MinePaged", paged.Result, nil, 0, "packed/spilled/1w")
	res, err = MineSQL(d, opts, SQLConfig{})
	plans("MineSQL", res, err, 0, "sql/spilled/1w")

	d = pairsFixture()
	opts = Options{MinSupportCount: 60}
	if r1 := d.packed().rows; len(r1) != 10_800 {
		t.Fatalf("setup: |R_1| = %d, want 10,800", len(r1))
	}
	res, err = MineMemory(d, opts)
	plans("MineMemory", res, err, 0, "packed/resident/1w")
	if len(res.Stats) < 3 {
		t.Fatalf("setup: %d passes", len(res.Stats))
	}
	res, err = MineAuto(d, Options{MinSupportCount: 60, MaxWorkers: 4})
	plans("MineAuto at 4 workers", res, err, 2, "packed/resident/4w")
	res, err = MineAuto(d, Options{MinSupportCount: 60, MaxWorkers: 8})
	plans("MineAuto at 8 workers", res, err, 2, "packed/resident/5w")
}

// cancelStore wraps a Store and fires a context cancellation after a
// fixed number of successful page writes — the deterministic analogue of
// FaultStore.FailWriteAfter for driving mid-spill cancellation without
// timing dependence. Writes themselves always succeed: cancellation must
// be noticed by the executor's own checkpoints, not by I/O errors. Runs
// reach the store an extent at a time, so an extent write counts page by
// page and the cancellation fires at the extent that crosses the count
// (or at the writer's Close), not at the append that filled the page.
type cancelStore struct {
	storage.Store
	mu         sync.Mutex
	writesLeft int
	cancel     context.CancelFunc
	fired      bool
}

func (c *cancelStore) wrote(pages int) {
	c.mu.Lock()
	c.writesLeft -= pages
	if c.writesLeft <= 0 && !c.fired {
		c.fired = true
		c.cancel()
	}
	c.mu.Unlock()
}

func (c *cancelStore) WritePages(id storage.PageID, src []byte) error {
	c.wrote(len(src) / storage.PageSize)
	return c.Store.WritePages(id, src)
}

// TestCancelledSpillReleasesEverything cancels the context mid-spill at
// several depths and checks the server-critical invariants: the error
// wraps context.Canceled, the pool holds zero pinned frames, and the
// aborted run's partial spill pages were recycled into the pool's free
// list — a fresh spill reuses them instead of growing the store.
func TestCancelledSpillReleasesEverything(t *testing.T) {
	d := execDataset(11, 3000)
	opts := Options{MinSupportFrac: 0.01, MemoryBudget: 16 << 10, MaxWorkers: 3}
	for _, after := range []int{1, 5, 25, 80} {
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancelStore{Store: storage.NewMemStore(), writesLeft: after, cancel: cancel}
		pool := storage.NewPool(cs, 32)
		st := newExecStepper(d, opts, PagedConfig{PoolFrames: 32})
		st.ctx = ctx
		st.attachPool(pool)
		_, err := runPipeline(ctx, d, opts, st, nil, nil)
		cancel()
		if err == nil {
			t.Fatalf("after=%d: mining succeeded despite cancellation", after)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: error %v does not wrap context.Canceled", after, err)
		}
		if n := pool.PinnedFrames(); n != 0 {
			t.Errorf("after=%d: %d pinned frames after cancellation", after, n)
		}
		// Partial runs must have come back to the free list: spilling a
		// fresh 4-page key run through the same pool reuses freed pages
		// rather than growing the store.
		if np := cs.NumPages(); np >= 8 {
			keys := make([]uint64, 4*storage.WordsPerPage)
			for i := range keys {
				keys[i] = uint64(i)
			}
			run, serr := xsort.SpillKeys(pool, keys)
			if serr != nil {
				t.Fatalf("after=%d: re-spill: %v", after, serr)
			}
			if got := cs.NumPages(); got != np {
				t.Errorf("after=%d: re-spill grew store %d -> %d pages; partial runs not recycled", after, np, got)
			}
			run.Free(pool)
		}
	}
}

// TestMineAutoMonitoredPreCancelled: a context cancelled before the call
// must refuse to mine at all, and a background context must behave
// exactly like MineAuto.
func TestMineAutoMonitoredPreCancelled(t *testing.T) {
	d := execDataset(13, 200)
	opts := Options{MinSupportFrac: 0.05}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineAutoMonitored(ctx, d, opts, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
	want, err := MineAuto(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineAutoMonitored(context.Background(), d, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "background-ctx", want, got)
}

// TestCanonicalOptions: option sets that differ only in execution knobs
// collapse to the same canonical form; sets that differ in result-
// determining fields do not.
func TestCanonicalOptions(t *testing.T) {
	const n = 1000
	a := CanonicalOptions(Options{MinSupportFrac: 0.01, MaxWorkers: 4, MemoryBudget: 1 << 20, RetainBorder: true}, n)
	b := CanonicalOptions(Options{MinSupportCount: 10, DisablePackedKernels: true}, n)
	if a != b {
		t.Fatalf("execution knobs leaked into canonical form: %+v vs %+v", a, b)
	}
	c := CanonicalOptions(Options{MinSupportCount: 11}, n)
	if a == c {
		t.Fatal("different thresholds canonicalized equal")
	}
	e := CanonicalOptions(Options{MinSupportCount: 10, MaxPatternLen: 2}, n)
	if a == e {
		t.Fatal("different pattern caps canonicalized equal")
	}
}
