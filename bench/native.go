package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"setm/internal/core"
	"setm/internal/costmodel"
	"setm/internal/storage"
)

// budget says how long a pass runs: until seconds have elapsed, and for at
// least minOps ops whatever the clock says.
type budget struct {
	seconds float64
	minOps  int
}

// run calls op until the budget is spent and returns how often it did.
func (b budget) run(op func()) int {
	start, n := time.Now(), 0
	for n < b.minOps || time.Since(start).Seconds() < b.seconds {
		op()
		n++
	}
	return n
}

// tally counts ops attempted and failed. An op fails on any error, any
// non-2xx answer, or a result whose digest is not the reference.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string // the first few failures, for the operator
}

func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// spillPoolFrames is the caller-owned buffer pool of the spilled regime:
// 256 frames, the paged driver's and setmd's default.
const spillPoolFrames = 256

// nativeEnv is what a core.MineAuto* op runs against.
type nativeEnv struct {
	w   workload
	d   *core.Dataset
	ref uint64 // digest every op's counts must have
	tmp string // directory for the spilled regime's page files
	seq int
}

func (e *nativeEnv) options(workers int) core.Options {
	return core.Options{MinSupportFrac: e.w.minsup, MemoryBudget: e.w.budget, MaxWorkers: workers}
}

// nativeOp is what one mine left behind.
type nativeOp struct {
	wall   time.Duration
	res    *core.Result
	iters  []time.Duration // traced ops: iters[k-1] is iteration k, cut at the onIter callbacks
	io     storage.Stats   // spilled regime: the op's own pool
	pinned int
}

// mine runs one op: MineAutoMonitored, under the workload's budget, with a
// caller-owned pool over a fresh page file when that budget is bounded (so
// "spilled" pages really leave the heap). With a tracer, the op gets a
// root span and one child per iteration; workers 0 is the default.
func (e *nativeEnv) mine(tr *tracer, workers int) (nativeOp, error) {
	var pool *storage.Pool
	if e.w.budget > 0 {
		e.seq++
		path := filepath.Join(e.tmp, fmt.Sprintf("spill-%d.pages", e.seq))
		fs, err := storage.OpenFileStore(path)
		if err != nil {
			return nativeOp{}, err
		}
		defer os.Remove(path)
		defer fs.Close()
		pool = storage.NewPool(fs, spillPoolFrames)
	}
	var op nativeOp
	var onIter func(core.IterationStat)
	root := tr.newOp("op")
	if tr != nil {
		cut := tr.startOf(root)
		onIter = func(st core.IterationStat) {
			now := tr.now()
			tr.add(root, fmt.Sprintf("core.iter%d", st.K), cut, now, map[string]int64{
				"r_prime_rows": st.RPrimeRows, "r_rows": st.RRows, "patterns": int64(st.CCount),
				"runs_spilled": st.RunsSpilled, "page_io": st.PageIO,
				"duration_ns": int64(st.Duration), // the executor's own clock, to cross-check the cut
			})
			op.iters = append(op.iters, time.Duration(now-cut))
			cut = now
		}
	}
	start := time.Now()
	res, err := core.MineAutoMonitored(context.Background(), e.d, e.options(workers), pool, onIter)
	op.wall = time.Since(start)
	tr.end(root, nil)
	if err != nil {
		return op, err
	}
	op.res = res
	if pool != nil {
		op.io, op.pinned = pool.Stats, pool.PinnedFrames()
	}
	if got := digestCounts(res.Counts); got != e.ref {
		return op, fmt.Errorf("digest %016x, reference %016x", got, e.ref)
	}
	if op.pinned != 0 {
		return op, fmt.Errorf("%d buffer frames still pinned", op.pinned)
	}
	return op, nil
}

// heapSampler polls the live heap every 5 ms and keeps the peak — the
// measured counterpart of MemoryBudget and of the admission footprint.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, readHeap())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakBytes stops the sampler and returns the highest heap it saw.
func (h *heapSampler) peakBytes() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// nativeProbe is the traced pass over the core layer: ops alternate
// between tracing off and on (so the overhead is a paired difference, not
// a drift), then short batches at MaxWorkers 1 and nproc. It also returns
// the last MaxWorkers-1 op, whose counts repeat exactly from run to run.
func nativeProbe(e *nativeEnv, tr *tracer, b budget, rep *report, tl *tally) (times probeTimes, last nativeOp) {
	// Two collections empty the arena pools (sync.Pool keeps a victim
	// generation), so the baseline is the data set alone and the peak
	// includes everything the ops allocate.
	runtime.GC()
	runtime.GC()
	baseHeap := readHeap()
	hs := startHeapSampler()
	var plain, traced, unattributed samples
	iters := make([]samples, 5)
	var rprime int64
	b.run(func() {
		op, err := e.mine(nil, 0)
		tl.note(err)
		plain.add(op.wall)
		op, err = e.mine(tr, 0)
		tl.note(err)
		if err != nil {
			return
		}
		traced.add(op.wall)
		rest := op.wall
		for k, d := range op.iters {
			if k < len(iters) {
				iters[k].add(d)
			}
			rest -= d
		}
		unattributed.add(rest)
		rprime = 0
		for _, st := range op.res.Stats {
			rprime += st.RPrimeRows
		}
	})
	peak := float64(hs.peakBytes()) - float64(baseHeap)

	for k := range iters {
		rep.addMedian(fmt.Sprintf("core.iter%d_s", k+1), "s", iters[k], 1)
	}
	rep.addMedian("core.unattributed_s", "s", unattributed, 1)
	rep.add("core.ns_per_rprime_row", "ns/row", ratio(median(traced)*1e9, float64(rprime)))

	// Parallelism: the same op pinned to one worker and given every CPU.
	// Allocation is read around the default-configuration batch.
	batch := budget{b.seconds / 4, b.minOps}
	var one, all samples
	batch.run(func() {
		op, err := e.mine(nil, 1)
		tl.note(err)
		one.add(op.wall)
		last = op
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := batch.run(func() {
		op, err := e.mine(nil, procs())
		tl.note(err)
		all.add(op.wall)
	})
	runtime.ReadMemStats(&m1)
	rep.addMedian("core.mine_1w_s", "s", one, 1)
	rep.addMedian("core.mine_nw_s", "s", all, 1)
	rep.add("core.parallel_speedup", "ratio", ratio(median(one), median(all)))
	rep.add("core.allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	rep.add("core.alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)/1e6)

	// Counts, from the MaxWorkers-1 op: they repeat exactly.
	var sum core.IterationStat
	if last.res != nil {
		for _, st := range last.res.Stats {
			sum.RPrimeRows += st.RPrimeRows
			sum.RRows += st.RRows
			sum.CCount += st.CCount
			sum.SortsSkipped += st.SortsSkipped
			sum.RunsSpilled += st.RunsSpilled
			sum.SpillBytes += st.SpillBytes
			sum.PageIO += st.PageIO
		}
	}
	rep.add("core.r_prime_rows", "count", float64(sum.RPrimeRows))
	rep.add("core.r_rows", "count", float64(sum.RRows))
	rep.add("core.patterns", "count", float64(sum.CCount))
	rep.add("core.sorts_skipped", "count", float64(sum.SortsSkipped))
	rep.add("core.runs_spilled", "count", float64(sum.RunsSpilled))
	rep.add("core.spill_mb", "MB", float64(sum.SpillBytes)/1e6)
	rep.add("core.page_io", "count", float64(sum.PageIO))
	io := last.io
	rep.add("storage.page_reads", "count", float64(io.Reads))
	rep.add("storage.page_writes", "count", float64(io.Writes))
	rep.add("storage.seq_read_share", "share", ratio(float64(io.SeqReads), float64(io.Reads)))
	rep.add("storage.pool_hit_rate", "share", ratio(float64(io.Hits), float64(io.Hits+io.Reads)))
	rep.add("storage.pinned_frames_end", "count", float64(last.pinned))

	// Models against measurement: heap the ops really added over the
	// budget they were given, and the planner's two estimates.
	rows := int64(e.d.NumSalesRows())
	basket := float64(rows) / float64(e.d.NumTransactions())
	over := 0.0
	if e.w.budget > 0 {
		over = peak / float64(e.w.budget)
	}
	rep.add("core.peak_heap_over_budget", "ratio", over)
	rep.add("costmodel.footprint_qerr", "ratio", costmodel.QError(costmodel.MineFootprint(rows, basket, e.w.budget), int64(peak)))
	rep.add("costmodel.rprime_qerr_k2", "ratio", costmodel.QError(costmodel.EstRPrimeRows(rows, basket), rPrime2(last.res)))
	return probeTimes{median(plain), median(traced)}, last
}

// rPrime2 is |R'_2| of a mining result, the run's largest relation.
func rPrime2(res *core.Result) int64 {
	if res == nil || len(res.Stats) < 2 {
		return 0
	}
	return res.Stats[1].RPrimeRows
}

// deltaProbe times core.MineDelta against a cold MineAuto of base+delta,
// for a 1% and a 10% append to the retail data.
func deltaProbe(seed int64, sc scale, n int, rep *report, tl *tally) {
	ctx := context.Background()
	extra := max(1, sc.retailTxns/10)
	grown := retailGrown(seed, sc, extra)
	base := slice(grown, 0, sc.retailTxns)
	opts := core.Options{MinSupportFrac: 0.001}
	retain := opts
	retain.RetainBorder = true
	baseRes, err := core.MineAuto(base, retain)
	if err != nil || baseRes.Border == nil {
		tl.note(fmt.Errorf("delta probe: base mine kept no border: %v", err))
		return
	}
	rung := func(extra int) (incr, cold samples) {
		delta := slice(grown, sc.retailTxns, sc.retailTxns+extra)
		combined := slice(grown, 0, sc.retailTxns+extra)
		for i := 0; i < n; i++ {
			start := time.Now()
			cres, err := core.MineAuto(combined, opts)
			cold.add(time.Since(start))
			if err != nil {
				tl.note(err)
				continue
			}
			start = time.Now()
			dres, err := core.MineDelta(ctx, base, delta, baseRes.Border, opts)
			incr.add(time.Since(start))
			if err == nil && digestCounts(dres.Counts) != digestCounts(cres.Counts) {
				err = fmt.Errorf("delta probe: MineDelta and cold MineAuto disagree at +%d txns", extra)
			}
			tl.note(err)
		}
		return incr, cold
	}
	incr1, _ := rung(deltaTxns(sc))
	incr10, cold10 := rung(extra)
	rep.addMedian("core.delta_1pct_s", "s", incr1, 1)
	rep.addMedian("core.delta_10pct_s", "s", incr10, 1)
	rep.add("core.delta_cold_ratio_10pct", "ratio", ratio(median(incr10), median(cold10)))
}
