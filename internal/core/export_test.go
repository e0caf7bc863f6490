package core

import (
	"time"

	"setm/internal/engine"
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
	res, err := runPipeline(d, opts, s)
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
