package core

import (
	"context"
	"fmt"
	"time"
)

// The SETM iteration loop of Figure 4 is the same on every execution
// substrate:
//
//	k := 1; sort R_1 on item; C_1 := counts from R_1
//	repeat
//	    k := k+1
//	    sort R_{k-1} on (trans_id, item_1..item_{k-1})
//	    R'_k := merge-scan(R_{k-1}, R_1)
//	    sort R'_k on (item_1..item_k)
//	    C_k := counts from R'_k
//	    R_k := filter R'_k to supported patterns
//	until R_k = {}
//
// runPipeline owns that loop — option validation, support resolution,
// termination, iteration statistics, timing — while a stepper supplies the
// substrate-specific relational steps. All drivers (in-memory, adaptive,
// paged, SQL) parameterize this one loop, so they cannot drift apart and
// any loop-level change lands in all of them at once.

// stepper is one execution substrate for the SETM pipeline.
type stepper interface {
	// init builds R_1, which is SALES itself (Section 6.1), and computes
	// C_1 at the given absolute support threshold. The returned stat's
	// RPrimeRows is |SALES| (R_1 has no R') and RRows is |R_1|.
	init(minSup int64) (c1 []ItemsetCount, st IterationStat, err error)
	// step runs one full SETM iteration for pattern length k: sort
	// R_{k-1}, merge-scan extend with R_1, sort on items, count into C_k,
	// filter to R_k. The returned stat's RPrimeRows is |R'_k| and RRows
	// is |R_k|.
	step(k int, minSup int64) (ck []ItemsetCount, st IterationStat, err error)
}

// A stepper fills in the IterationStat fields it knows — the relation
// sizes, SortsSkipped, the spill accounting and the Plan — and
// runPipeline the rest: K, RPaperBytes, CCount, Duration and the
// checkpoint fields.

// now times passes and checkpoint writes; a test swaps it (export_test.go).
var now = time.Now

// runPipeline drives the shared SETM loop over a stepper, with
// cancellation, an optional per-iteration observer and an optional resume
// point. The context is checked at every iteration boundary (the
// executor's kernels additionally poll it every few thousand rows, so a
// spilled pass cancels promptly); a cancelled run releases the stepper —
// freeing its arenas, spill runs, and pinned frames — and returns an error
// wrapping ctx.Err(). onIter, when non-nil, receives each IterationStat as
// the iteration completes — the hook long-running callers (the setmd job
// status endpoint) stream progress from. A non-nil checkpoint replays its
// recorded iterations into the result, asks the stepper to rebuild its
// live state (the stepper must be a checkpointer), and re-enters the loop
// at iteration cp.K+1. With Options.Checkpoint set and a checkpointer
// stepper, a completed iteration with surviving rows is persisted when the
// cadence says so (CheckpointConfig.Interval: fixed, or paced by the work
// at risk); a failed checkpoint write notifies CheckpointConfig.OnError
// and disables further checkpoints without failing the mine.
func runPipeline(ctx context.Context, d *Dataset, opts Options, s stepper, onIter func(IterationStat), cp *Checkpoint) (*Result, error) {
	if err := validate(d, opts); err != nil {
		return nil, err
	}
	fail := func(err error) (*Result, error) {
		if r, ok := s.(releaser); ok {
			r.release()
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return fail(fmt.Errorf("setm: mining cancelled: %w", err))
	}
	start := time.Now()
	minSup := opts.ResolveMinSupport(d.NumTransactions())
	res := &Result{NumTransactions: d.NumTransactions(), MinSupport: minSup}
	ckCfg := opts.Checkpoint
	cw, canCkpt := s.(checkpointer)
	// Pacing state: mining time no checkpoint protects yet (0 at the start
	// and after a resume), and the wall and bytes of the last write.
	var atRisk, lastCost time.Duration
	var lastBytes int64
	record := func(k int, ck []ItemsetCount, st IterationStat, iterStart time.Time) {
		res.Counts = append(res.Counts, ck)
		st.K, st.CCount = k, len(ck)
		st.RPaperBytes = st.RRows * paperTupleBytes(k)
		st.Duration = now().Sub(iterStart)
		res.Stats = append(res.Stats, st)
		atRisk += st.Duration
		// Persist the iteration boundary while there are rows to resume
		// from; a final empty R_k has nothing a restart would continue.
		if ckCfg != nil && canCkpt && st.RRows > 0 && (ckCfg.Interval >= 1 && k%ckCfg.Interval == 0 ||
			ckCfg.Interval < 1 && checkpointPays(atRisk, checkpointCost(st.RRows*16, lastCost, lastBytes))) {
			t0 := now()
			n, err := cw.writeCheckpoint(ckCfg, &Checkpoint{
				K: k, MinSup: minSup, NumTransactions: res.NumTransactions,
				RPrimeRows: st.RPrimeRows, RRows: st.RRows,
				Counts: res.Counts, Stats: res.Stats,
			})
			if err != nil {
				if ckCfg.OnError != nil {
					ckCfg.OnError(err)
				}
				ckCfg = nil
			} else {
				atRisk, lastCost, lastBytes = 0, now().Sub(t0), st.RRows*16
				res.Stats[len(res.Stats)-1].CheckpointBytes = n
				res.Stats[len(res.Stats)-1].CheckpointDuration = lastCost
			}
		}
		if onIter != nil {
			onIter(res.Stats[len(res.Stats)-1])
		}
	}

	var k int
	var st IterationStat
	iterStart := now()
	if cp != nil {
		if !canCkpt {
			return fail(fmt.Errorf("%w: this substrate cannot resume", ErrCheckpoint))
		}
		if cp.MinSup != minSup || cp.NumTransactions != res.NumTransactions ||
			cp.K < 1 || len(cp.Counts) != cp.K {
			return fail(fmt.Errorf("%w: manifest (k=%d, minsup=%d, %d transactions) does not match this run (minsup=%d, %d transactions)",
				ErrCheckpoint, cp.K, cp.MinSup, cp.NumTransactions, minSup, res.NumTransactions))
		}
		var err error
		st, err = cw.resume(cp)
		if err != nil {
			return fail(err)
		}
		res.Counts = append(res.Counts, cp.Counts...)
		res.Stats = append(res.Stats, cp.Stats...)
		if onIter != nil {
			for _, st := range cp.Stats {
				onIter(st)
			}
		}
		k = cp.K
	} else {
		c1, st1, err := s.init(minSup)
		if err != nil {
			return fail(err)
		}
		record(1, c1, st1, iterStart)
		st, k = st1, 1
	}
	// A refresh's Δ rows can run out while the base's candidates still
	// count, so the loop also runs on while C_k has patterns (a cold mine's
	// R_k has rows whenever its C_k does).
	for st.RRows > 0 || len(res.Counts[len(res.Counts)-1]) > 0 {
		if opts.MaxPatternLen > 0 && k >= opts.MaxPatternLen {
			break
		}
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("setm: mining cancelled after iteration %d: %w", k, err))
		}
		k++
		iterStart = now()
		var ck []ItemsetCount
		var err error
		ck, st, err = s.step(k, minSup)
		if err != nil {
			return fail(err)
		}
		record(k, ck, st, iterStart)
		if len(ck) == 0 {
			break
		}
	}

	trimEmptyTail(res)
	// Border assembly must precede release (the dictionary is arena-
	// backed). A resumed run skips it: iterations before the checkpoint
	// were never re-counted, so their borders are unknown and the result
	// carries no snapshot.
	if opts.RetainBorder && cp == nil {
		if b, ok := s.(borderer); ok {
			res.Border = b.borderSnapshot(res)
		}
	}
	if r, ok := s.(releaser); ok {
		r.release()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// checkpointer is implemented by steppers that can persist and rebuild
// their live state at an iteration boundary (the adaptive executor).
// writeCheckpoint persists cp plus the live packed R_k, returning bytes
// written; resume rebuilds the stepper as if iteration cp.K had just
// completed.
type checkpointer interface {
	writeCheckpoint(cfg *CheckpointConfig, cp *Checkpoint) (int64, error)
	resume(cp *Checkpoint) (IterationStat, error)
}

// releaser is implemented by steppers that hold storage-layer resources
// (spilled runs, buffer-pool pages, arenas) the pipeline must give back
// once it is done stepping, whether the run finished, failed or was
// cancelled.
type releaser interface{ release() }

// trimEmptyTail drops a trailing empty C_k so that len(res.Counts) is the
// largest k with frequent patterns (keeping at least C_1).
func trimEmptyTail(res *Result) {
	for len(res.Counts) > 1 && len(res.Counts[len(res.Counts)-1]) == 0 {
		res.Counts = res.Counts[:len(res.Counts)-1]
	}
}
