package core

import (
	"context"
	"errors"
	"testing"

	"setm/internal/storage"
)

// spillOpts forces the out-of-core regime on faultDataset: a 16 KB
// budget over ~4,000 sales rows spills every iteration.
var spillOpts = Options{MinSupportFrac: 0.05, MemoryBudget: 16 << 10}

// runSpillPipeline runs MineAuto's executor under opts' budget over the
// given store with the test's own pool, so assertions can inspect pool
// state after the run.
func runSpillPipeline(d *Dataset, opts Options, store storage.Store, frames int) (*Result, *storage.Pool, error) {
	pool := storage.NewPool(store, frames)
	st := newExecStepper(d, opts, PagedConfig{PoolFrames: frames, Store: store})
	st.attachPool(pool)
	res, err := runPipeline(context.Background(), d, opts, st, nil, nil)
	return res, pool, err
}

// TestSpillPipelineSurfacesFaults sweeps injected read, write, and
// allocation faults at many depths through the spilling pipeline: every
// failure must surface as an error wrapping storage.ErrInjected — no
// panic, no partial result reported as success — and the pool must hold
// zero pinned frames afterwards (error paths release every pin). The
// sweep's last depths fault the final passes, which on the wide-domain
// set lie past the width a bit-packed key holds. The pairs-pass case
// faults a read and a write at the middle of the streaming pairs pass,
// and also requires every page free afterwards.
func TestSpillPipelineSurfacesFaults(t *testing.T) {
	wide, _, _ := wideDomainDataset(t)
	for _, c := range []struct {
		name string
		d    *Dataset
		opts Options
	}{
		{"fault-dataset", faultDataset(), spillOpts},
		{"wide-domain", wide, Options{MinSupportCount: 25, MemoryBudget: 16 << 10}},
	} {
		t.Run(c.name, func(t *testing.T) { sweepSpillFaults(t, c.d, c.opts) })
	}
	t.Run("pairs-pass", faultInsidePairsPass)
}

func sweepSpillFaults(t *testing.T, d *Dataset, opts Options) {
	// Sanity: without faults the run succeeds, spills on every pass, and
	// leaves no pins.
	res, pool, err := runSpillPipeline(d, opts, storage.NewMemStore(), 8)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	for _, st := range res.Stats {
		if p := st.Plan; p.String() != "packed/spilled/1w/"+p.Count {
			t.Errorf("fault-free run k=%d: plan %s, want packed/spilled/1w/*", st.K, p)
		}
	}
	if pool.Stats.Accesses() == 0 {
		t.Fatal("fault-free run performed no I/O: faults below would never fire")
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("fault-free run left %d pinned frames", n)
	}

	// A fault only fires if the run performs that many operations of its
	// kind; cap each sweep at the fault-free run's own counts (allocs hit
	// the store only when the free list is empty, so they are far fewer
	// than pool.Stats.Allocs).
	baseline := storage.NewFaultStore(storage.NewMemStore())
	if _, _, err := runSpillPipeline(d, opts, baseline, 8); err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name string
		max  int
		set  func(*storage.FaultStore, int)
	}{
		{"read", int(pool.Stats.Reads), func(fs *storage.FaultStore, n int) { fs.FailReadAfter = n }},
		{"write", int(pool.Stats.Writes), func(fs *storage.FaultStore, n int) { fs.FailWriteAfter = n }},
		{"alloc", baseline.Inner.NumPages(), func(fs *storage.FaultStore, n int) { fs.FailAllocAfter = n }},
	}
	for _, kind := range kinds {
		if kind.max == 0 {
			t.Errorf("%s: fault-free run performed no operations of this kind", kind.name)
			continue
		}
		for _, failAfter := range []int{0, 1, 2, 5, 13, 50, 200, kind.max / 2, kind.max - 1} {
			if failAfter >= kind.max {
				continue // the run never reaches this depth
			}
			fs := storage.NewFaultStore(storage.NewMemStore())
			kind.set(fs, failAfter)
			_, pool, err := runSpillPipeline(d, opts, fs, 8)
			if err == nil {
				t.Errorf("%s failAfter=%d: mining succeeded despite injected faults", kind.name, failAfter)
				continue
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Errorf("%s failAfter=%d: error %v does not wrap the injected fault", kind.name, failAfter, err)
			}
			if n := pool.PinnedFrames(); n != 0 {
				t.Errorf("%s failAfter=%d: %d frames still pinned after error", kind.name, failAfter, n)
			}
		}
	}
}

// TestSpillPipelineFaultsThroughMinePaged exercises the same injection
// through the public driver (MinePaged owns its pool there).
func TestSpillPipelineFaultsThroughMinePaged(t *testing.T) {
	d := faultDataset()
	for _, failAfter := range []int{0, 3, 30} {
		fs := storage.NewFaultStore(storage.NewMemStore())
		fs.FailWriteAfter = failAfter
		_, err := MinePaged(d, spillOpts, PagedConfig{Store: fs, PoolFrames: 8})
		if err == nil {
			t.Errorf("failAfter=%d: mining succeeded despite write faults", failAfter)
			continue
		}
		if !errors.Is(err, storage.ErrInjected) {
			t.Errorf("failAfter=%d: error %v does not wrap the injected fault", failAfter, err)
		}
	}
}

// TestSpillAccountingMatchesPool pins the IterationStat spill fields to
// the pool's own accounting: per-iteration PageIO must sum to the pool
// total, and spilled bytes must be covered by the pages allocated.
func TestSpillAccountingMatchesPool(t *testing.T) {
	d := faultDataset()
	res, err := MinePaged(d, spillOpts, PagedConfig{PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	var pageIO, runs, bytes int64
	for _, st := range res.Stats {
		pageIO += st.PageIO
		runs += st.RunsSpilled
		bytes += st.SpillBytes
	}
	if pageIO != res.IO.Accesses() {
		t.Errorf("sum of per-iteration PageIO = %d, pool total = %d", pageIO, res.IO.Accesses())
	}
	if runs < 2 {
		t.Errorf("RunsSpilled total = %d, want >= 2 at a 16 KB budget", runs)
	}
	if bytes <= 0 {
		t.Errorf("SpillBytes total = %d, want > 0", bytes)
	}
	// Every spilled byte occupies an allocated page.
	if got, min := res.IO.Allocs*storage.PageSize, bytes/4; got < min {
		t.Errorf("allocated %d bytes of pages for %d spilled bytes", got, bytes)
	}
}

// TestMinePagedUnboundedBudgetNoIO pins the "transparently in-RAM below
// the budget" contract: a negative budget must never touch the pool.
func TestMinePagedUnboundedBudgetNoIO(t *testing.T) {
	d := faultDataset()
	opts := Options{MinSupportFrac: 0.05, MemoryBudget: -1}
	// A FaultStore that fails on the very first access proves no I/O at
	// all is attempted.
	fs := storage.NewFaultStore(storage.NewMemStore())
	fs.FailReadAfter = 0
	fs.FailWriteAfter = 0
	fs.FailAllocAfter = 0
	res, err := MinePaged(d, opts, PagedConfig{Store: fs, PoolFrames: 4})
	if err != nil {
		t.Fatalf("unbounded budget hit the store: %v", err)
	}
	if res.IO.Accesses() != 0 {
		t.Errorf("unbounded budget performed %d page accesses", res.IO.Accesses())
	}
	want, err := MineMemory(d, Options{MinSupportFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "unbounded-budget", want, res.Result)
}
