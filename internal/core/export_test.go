package core

import (
	"context"
	"testing"
	"time"

	"setm/internal/engine"
	"setm/internal/storage"
)

// MineSQLOn is MineSQL with its engine exposed: before (may be nil) runs
// ahead of every traced statement with the engine in the state that
// statement will see, and the engine is returned for pool inspection.
func MineSQLOn(d *Dataset, opts Options, before func(db *engine.DB, sql string)) (*Result, *engine.DB, error) {
	s, err := newSQLStepper(d, opts, SQLConfig{})
	if err != nil {
		return nil, nil, err
	}
	if before != nil {
		s.cfg.TraceSQL = func(sql string) { before(s.db, sql) }
	}
	res, err := runPipeline(context.Background(), d, opts, s, nil, nil)
	return res, s.db, err
}

// CountsQuery is the C_k read-back, the one statement of a pass that
// MineSQL issues outside TraceSQL.
var CountsQuery = countsQuery

// SetClock swaps the clock that times passes and checkpoint writes (what
// the checkpoint pacing rule reads) and returns the restore function.
func SetClock(clock func() time.Time) (restore func()) {
	prev := now
	now = clock
	return func() { now = prev }
}

// AssertSameBorder is the semantic snapshot comparison of delta_test.go,
// for the external conformance suite.
var AssertSameBorder = assertSameBorder

// freePages counts the pool's free list: pages taken before the store
// grows. Equal to the store's size, every page is free.
func freePages(t *testing.T, pool *storage.Pool) int {
	t.Helper()
	pages := pool.Store().NumPages()
	page := make([]byte, storage.PageSize)
	for n := 0; ; n++ {
		if _, err := pool.AppendPages(nil, page); err != nil {
			t.Fatal(err)
		}
		if pool.Store().NumPages() > pages {
			return n
		}
	}
}

// FreePages is freePages, for the external conformance suite.
var FreePages = freePages

// SignedDataset is signedDataset, for the external suite.
var SignedDataset = signedDataset

// BasketIndex is d's memo as its basket index reads: each basket's
// trans_id, where each basket's rows start (len(tids)+1 entries), and
// the rows, whose Tid is their basket's ordinal.
func BasketIndex(d *Dataset) (tids []int64, starts []uint32, rows []storage.PackedRow) {
	m := d.packed()
	for _, t := range m.tids {
		tids = append(tids, int64(t^tidFlip))
	}
	return tids, m.starts, m.rows
}
