package core

import (
	"runtime"
	"sync"

	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/xsort"
)

// MinePartitioned runs Algorithm SETM with the dataset hash-sharded into
// independent partitions — the sharding stepping-stone toward distributed
// SETM. Transactions are assigned to shards by a hash of their trans_id,
// so every R_k row of a transaction lives in exactly one shard. Each
// shard runs the pipeline's relational kernels over purely local state;
// the only cross-shard communication is the per-iteration count merge
// ("count distribution"): shards produce unfiltered local candidate
// counts, a global second pass sums them and applies the support
// threshold, and each shard then filters its local R'_k by the global
// C_k. On the default packed-key substrate the exchanged counts are
// packed flat (key, count) lists — one word per pattern — merged by
// integer comparison. Because transactions are disjoint across shards,
// the merged counts equal the serial driver's exactly and the results
// are bit-identical to MineMemory (the conformance suite enforces it).
//
// Sharding exists on the packed kernels only: under DisablePackedKernels
// this is the serial flat reference, and a run whose patterns outgrow the
// 64-bit key hands its shards' rows to that same reference (handOff).
//
// shards <= 0 selects GOMAXPROCS.
func MinePartitioned(d *Dataset, opts Options, shards int) (*Result, error) {
	if opts.DisablePackedKernels {
		return MineMemory(d, opts)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return runPipeline(d, opts, &partitionStepper{d: d, opts: opts, nshards: shards})
}

// partitionStepper is the sharded substrate of the SETM pipeline.
type partitionStepper struct {
	d       *Dataset
	opts    Options
	nshards int
	shards  []*partitionShard

	// Packed-key state: a single global dictionary shared by every shard
	// (codes must agree for the count merge), the arena backing it, and
	// the merged C_k buffer with its filter bitmap.
	dict   *packDict
	dictAr *mineArena
	ck     pkCounts

	// flat takes the run over once patterns no longer fit one key.
	flat *flatStepper

	// Exchange spill state: when Options.MemoryBudget caps the working
	// set and the shards' candidate count lists collectively outgrow it,
	// each shard's (key, count) list is written as a packed run and the
	// global merge streams over the runs instead of holding every list in
	// RAM — the same substrate MinePaged spills relations through.
	exPool *storage.Pool
	exStat spillStats
	exIO   int64
}

// partitionShard holds one shard's local packed relations.
type partitionShard struct {
	psales []prow     // local packed R_1
	prk    []prow     // local packed R_{k-1}
	pjoin  []prow     // local packed join side
	pext   []prow     // local packed R'_k of the current iteration
	ar     *mineArena // scratch buffers; ar.ck holds the local unfiltered
	//                  candidate counts exchanged with the global merge
	skips int64  // local sort-skip tally of the current iteration
	count string // count kernel of the current iteration's local pass
}

// shardOf maps a transaction ID to its shard with a splitmix64-style
// finalizer, so consecutive IDs spread evenly.
func shardOf(id int64, n int) int {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// forEachShard runs fn for every shard concurrently and waits.
func (s *partitionStepper) forEachShard(fn func(sh *partitionShard)) {
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *partitionShard) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	wg.Wait()
}

func (s *partitionStepper) init(minSup int64) ([]ItemsetCount, iterSizes, error) {
	// Hash-shard the transactions. Rows of one transaction must co-locate,
	// so the hash key is the trans_id.
	groups := make([][]Transaction, s.nshards)
	for _, tx := range s.d.Transactions {
		i := shardOf(tx.ID, s.nshards)
		groups[i] = append(groups[i], tx)
	}
	s.shards = make([]*partitionShard, s.nshards)
	for i := range s.shards {
		s.shards[i] = &partitionShard{}
	}
	s.dictAr = newMineArena()
	s.dict = buildDict(s.d, s.dictAr)

	// Local pass: build each shard's packed R_1 and its unfiltered item
	// counts from the shared dictionary.
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *partitionShard) {
			defer wg.Done()
			sh.ar = newMineArena()
			sh.psales = packSales(&Dataset{Transactions: groups[i]}, s.dict, sh.ar)
			sh.countLocal(sh.psales, s.dict, 1)
		}(i, sh)
	}
	wg.Wait()

	// Global pass: merge the packed shard counts at the threshold.
	ck, err := s.mergeShardCounts(minSup)
	if err != nil {
		return nil, iterSizes{}, err
	}
	c1 := decodePatterns(ck, 1, s.dict)

	s.forEachShard(func(sh *partitionShard) {
		sh.prk = sh.psales
		sh.pjoin = sh.psales
		if s.opts.PrefilterSales {
			sh.prk = packedFilter(sh.psales, ck.keys, nil)
			sh.pjoin = sh.prk
		}
	})

	var salesRows, rkRows, skips int64
	for _, sh := range s.shards {
		salesRows += int64(len(sh.psales))
		rkRows += int64(len(sh.prk))
		skips += sh.skips
	}
	sz := iterSizes{rPrime: salesRows, rRows: rkRows, sortSkips: skips, plan: s.plan()}
	s.takeExchangeStats(&sz)
	return c1, sz, nil
}

// plan is the partitioned driver's fixed strategy IR: the sharded
// count-distribution exchange, one worker per shard, relations resident
// (only the exchange lists spill past the budget).
func (s *partitionStepper) plan() IterPlan {
	p := IterPlan{Kernel: KernelPacked, Regime: RegimeResident, Workers: s.nshards, Exchange: ExchangeSharded}
	// Shards pick their count kernel from their own row counts; the pass
	// reports the table only when every shard counted on one.
	p.Count = CountTable
	for _, sh := range s.shards {
		if sh.count != CountTable {
			p.Count = CountSort
		}
	}
	return p
}

// takeExchangeStats moves the accumulated exchange spill accounting into
// the iteration's sizes.
func (s *partitionStepper) takeExchangeStats(sz *iterSizes) {
	sz.runsSpilled += s.exStat.runs
	sz.spillBytes += s.exStat.bytes
	sz.pageIO += s.exIO
	s.exStat = spillStats{}
	s.exIO = 0
}

func (s *partitionStepper) step(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	if s.flat == nil && k > s.dict.maxPackedK() {
		s.handOff(k)
	}
	if s.flat != nil {
		return s.flat.step(k, minSup)
	}
	return s.stepPacked(k, minSup)
}

// handOff ends the sharded run once k-item patterns no longer fit one
// key, the way execStepper.stepWideFallback does: the shards' live rows
// are gathered back into global (trans_id, items) order — shards are
// tid-disjoint and packed key order is item order — and unpacked into the
// one serial flat reference; every arena is returned.
func (s *partitionStepper) handOff(k int) {
	var rk, join []prow
	for _, sh := range s.shards {
		rk = append(rk, sh.prk...)
		join = append(join, sh.pjoin...)
	}
	unpackSorted := func(rows []prow, k int) relation {
		xsort.RadixSortRows(rows, make([]prow, len(rows)))
		return unpackRel(rows, k, s.dict)
	}
	s.flat = &flatStepper{
		d: s.d, opts: s.opts,
		rk:       unpackSorted(rk, k-1),
		joinSide: unpackSorted(join, 1),
	}
	s.release()
}

// stepPacked runs one sharded iteration on the packed-key substrate:
// shards extend and count locally, exchange packed flat counts, and
// filter by the merged C_k.
func (s *partitionStepper) stepPacked(k int, minSup int64) ([]ItemsetCount, iterSizes, error) {
	// Local pass: sort (usually skipped — filtering preserved order),
	// extend, and count candidates without any support filter — a locally
	// rare pattern may be globally frequent.
	s.forEachShard(func(sh *partitionShard) {
		sh.skips = 0
		if prowsSorted(sh.prk) {
			sh.skips++
		} else {
			sh.ar.rowsTmp = growProws(sh.ar.rowsTmp, len(sh.prk))
			xsort.RadixSortRows(sh.prk, sh.ar.rowsTmp)
		}
		sh.pext = packedExtend(sh.prk, sh.pjoin, s.dict.bits, sh.ar.ext[:0])
		sh.ar.ext = sh.pext
		sh.countLocal(sh.pext, s.dict, k)
	})

	// Global pass: merge the packed shard counts into C_k.
	ck, err := s.mergeShardCounts(minSup)
	if err != nil {
		return nil, iterSizes{}, err
	}
	cOut := decodePatterns(ck, k, s.dict)

	// Local pass: filter each shard's R'_k by the global C_k — shards
	// share one read-only membership bitmap when the key space is narrow.
	// Survivors keep (trans_id, items) order, so the re-sort is skipped.
	bm := buildKeyBitmap(ck.keys, uint(k)*s.dict.bits, s.dictAr)
	s.forEachShard(func(sh *partitionShard) {
		if bm != nil && len(ck.keys) > 0 {
			sh.prk = packedFilterBitmap(sh.pext, bm, sh.ar.rkBuf[:0])
		} else {
			sh.prk = packedFilter(sh.pext, ck.keys, sh.ar.rkBuf[:0])
		}
		sh.ar.rkBuf = sh.prk
		sh.skips++
	})

	var rPrimeRows, rkRows, skips int64
	for _, sh := range s.shards {
		rPrimeRows += int64(len(sh.pext))
		rkRows += int64(len(sh.prk))
		skips += sh.skips
	}
	sz := iterSizes{rPrime: rPrimeRows, rRows: rkRows, sortSkips: skips, plan: s.plan()}
	s.takeExchangeStats(&sz)
	return cOut, sz, nil
}

// countLocal counts a shard's pass-k candidate rows without a threshold
// into the shard's exchange buffer (ar.ck), on the kernel the shard's
// own row count selects.
func (sh *partitionShard) countLocal(rows []prow, dict *packDict, k int) {
	dst := pkCounts{keys: sh.ar.ck.keys[:0], counts: sh.ar.ck.counts[:0]}
	sh.ar.ck, sh.count = countRows(rows, dict, k, 1, 1, sh.ar, dst, &sh.skips)
}

// mergeShardCounts merges every shard's packed count list into the
// stepper's reused C_k buffer at the given threshold. When the lists
// collectively exceed Options.MemoryBudget they are exchanged as packed
// (key, count) runs through a buffer pool and merged streaming.
func (s *partitionStepper) mergeShardCounts(minSup int64) (pkCounts, error) {
	if b := s.opts.MemoryBudget; b > 0 {
		var rows int64
		for _, sh := range s.shards {
			rows += int64(len(sh.ar.ck.keys))
		}
		// A (key, count) entry is one packed row wide.
		if costmodel.SpillRuns(rows, costmodel.PackedRowBytes, b) > 1 {
			return s.mergeShardCountsSpilled(minSup)
		}
	}
	parts := make([]pkCounts, len(s.shards))
	for i, sh := range s.shards {
		parts[i] = sh.ar.ck
	}
	s.ck = mergePackedCounts(parts, minSup, pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]})
	return s.ck, nil
}

// mergeShardCountsSpilled writes each shard's (key, count) list as one
// packed run — key in the row's Tid word so run order is key order — and
// streams the k-way merge, summing counts per key and applying the
// threshold on the fly. Each open run holds one extent buffer, cut to
// the budget's share per shard, regardless of the lists' lengths.
func (s *partitionStepper) mergeShardCountsSpilled(minSup int64) (pkCounts, error) {
	if s.exPool == nil {
		// Sized so the default fan-in merges every shard's run in one pass.
		frames := 2*s.nshards + 8
		s.exPool = storage.NewPool(storage.NewMemStore(), frames)
		s.exPool.LimitRunExtent(s.opts.MemoryBudget / int64(s.nshards+1))
	}
	ioStart := s.exPool.Stats.Accesses()
	runs := make([]storage.Run, 0, len(s.shards))
	for _, sh := range s.shards {
		ck := sh.ar.ck
		if len(ck.keys) == 0 {
			continue // nothing to exchange; an empty run would only skew accounting
		}
		w := storage.NewRunWriter(s.exPool)
		for i, k := range ck.keys {
			if err := w.Row(prow{Tid: k, Key: uint64(ck.counts[i])}); err != nil {
				w.Close()
				freeExchangeRuns(s.exPool, runs)
				return pkCounts{}, err
			}
		}
		run, err := w.Close()
		if err != nil {
			freeExchangeRuns(s.exPool, runs)
			return pkCounts{}, err
		}
		s.exStat.runs++
		s.exStat.bytes += run.Bytes()
		runs = append(runs, run)
	}

	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	var cur uint64
	var n int64
	flush := func() {
		if n >= minSup {
			dst.keys = append(dst.keys, cur)
			dst.counts = append(dst.counts, n)
		}
	}
	err := xsort.MergeRows(s.exPool, runs, xsort.FanIn(s.exPool.Capacity()), func(r prow) error {
		if n > 0 && r.Tid == cur {
			n += int64(r.Key)
			return nil
		}
		flush()
		cur, n = r.Tid, int64(r.Key)
		return nil
	})
	if err != nil {
		return pkCounts{}, err
	}
	flush()
	s.exIO += s.exPool.Stats.Accesses() - ioStart
	s.ck = dst
	return dst, nil
}

// freeExchangeRuns returns already-written exchange runs to the pool.
func freeExchangeRuns(pool *storage.Pool, runs []storage.Run) {
	for i := range runs {
		runs[i].Free(pool)
	}
}

// release returns every live arena to the pool once the pipeline is
// done stepping.
func (s *partitionStepper) release() {
	for _, sh := range s.shards {
		if sh.ar != nil {
			sh.psales, sh.prk, sh.pjoin, sh.pext = nil, nil, nil, nil
			sh.ar.release()
			sh.ar = nil
		}
	}
	if s.dictAr != nil {
		s.dict = nil
		s.dictAr.release()
		s.dictAr = nil
	}
}
