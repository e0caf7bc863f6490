package core

import (
	"context"

	"setm/internal/costmodel"
	"setm/internal/storage"
)

// PagedConfig tunes the paged driver's substrate.
type PagedConfig struct {
	// PoolFrames is the buffer-pool capacity in 4 KB frames (default 256 —
	// SETM's access pattern is sequential, so small pools suffice).
	PoolFrames int
	// Store supplies the page store (default: a fresh in-memory store).
	// Pass a storage.FileStore to run against a real file, or a
	// storage.FaultStore in failure-injection tests.
	Store storage.Store
}

func (c PagedConfig) withDefaults() PagedConfig {
	if c.PoolFrames <= 0 {
		c.PoolFrames = 256
	}
	return c
}

// PagedResult bundles a mining result with the storage-layer accounting
// that the paper's Section 4.3 formula bounds.
type PagedResult struct {
	*Result
	// IO is the buffer pool's page-access tally for the whole run.
	IO storage.Stats
	// RPages[k-1] is ‖R_k‖, the page footprint of each stored R_k (after
	// the support filter).
	RPages []int
	// RPrimePages[k-1] is ‖R'_k‖, the footprint of the unfiltered
	// candidate relation — the quantity the Section 4.3 worst-case model
	// describes. RPrimePages[0] equals RPages[0] (R_1 has no R').
	RPrimePages []int
}

// MinePaged runs Algorithm SETM with a bounded memory working set: the
// executor under Section 4.3's plan — every pass serial, and spilled
// whenever the budget is positive, which engages the spillable-relation
// machinery (spill.go). An iteration whose packed footprint fits
// Options.MemoryBudget runs entirely in RAM; past the budget its relations
// stream to the pool's page store as raw packed-page runs — bounded radix
// runs plus a cascaded k-way merge for the count sort, sequential runs for
// everything else. It is the one driver whose
// SALES lives on pages, for Section 4.3: R_1 past its budget share is a
// run, read back by every pass. A zero budget defaults to
// PoolFrames × the page size (the pool's own capacity); a negative budget
// pins everything in RAM. MineAuto chooses regime and parallelism per
// iteration by rule instead. Options.DisablePackedKernels runs
// the serial flat reference instead (no page I/O). Pass 2 writes R'_2, as
// the paper's algorithm does, where the other drivers count its pairs
// straight off SALES. The returned IO stats and page footprints let
// experiments check the Section 4.3 bound
//
//	(n-1)·‖R_1‖ + Σ‖R'_i‖ + 2·Σ‖R_i‖
func MinePaged(d *Dataset, opts Options, cfg PagedConfig) (*PagedResult, error) {
	cfg = cfg.withDefaults()
	store := cfg.Store
	if store == nil {
		store = storage.NewMemStore()
	}
	pool := storage.NewPool(store, cfg.PoolFrames)
	var st stepper = &flatStepper{d: d} // the reference, DisablePackedKernels
	if !opts.DisablePackedKernels {
		if opts.MemoryBudget == 0 {
			opts.MemoryBudget = int64(cfg.PoolFrames) * storage.PageSize
		}
		es := newExecStepper(d, opts, cfg)
		es.paperPaged = true
		es.attachPool(pool)
		st = es
	}
	res, err := runPipeline(context.Background(), d, opts, st, nil, nil)
	if err != nil {
		return nil, err
	}
	// A run is page-padded only at its tail, so a relation's pages follow
	// from its rows whether it was resident or spilled.
	pages := func(rows int64) int {
		return max(int(costmodel.PackedPages(rows, costmodel.PackedRowBytes)), 1)
	}
	pres := &PagedResult{Result: res, IO: pool.Stats}
	for i, it := range res.Stats {
		pres.RPages = append(pres.RPages, pages(it.RRows))
		if i == 0 {
			pres.RPrimePages = append(pres.RPrimePages, pres.RPages[0])
		} else {
			pres.RPrimePages = append(pres.RPrimePages, pages(it.RPrimeRows))
		}
	}
	return pres, nil
}
