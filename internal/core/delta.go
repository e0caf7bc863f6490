package core

// Incremental delta mining over a negative-border snapshot (border.go).
//
// A SETM candidate of length k gets one R'_k row per supporting
// transaction once its (k-1)-prefix is frequent, so every count a
// snapshot records, frequent or border, is the pattern's true support
// over the base. An append only adds the delta's own support:
//
//	support(p, base+delta) = snapshotCount(p) + support(p, delta)
//
// where snapshotCount is 0 for a pattern absent from F_k ∪ border (in no
// base basket, or under an infrequent prefix). A refresh is therefore the
// executor's pipeline over the delta's SALES, packed under the merged
// dictionary and counted at threshold 1 as under RetainBorder: splitBorder
// adds the snapshot's level-k counts (deltaSeed.level) before it applies
// the minsup of base+delta. Demotions are exact: the base candidates under
// a demoted prefix are dropped, as a cold mine never counts them. A
// promotion at level k >= 2 invalidates the deeper levels, whose
// extensions of it over the base were never counted: errBorderShift, which
// a plain MineAuto over base+delta answers (remine). A level-1 promotion
// invalidates nothing: R_1 is unfiltered SALES, so every pair in any
// basket is a counted level-2 candidate.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"setm/internal/storage"
)

// MineDelta folds appended transactions into a retained border snapshot
// and returns the mining result for base+delta, bit-identical in Counts
// to MineAuto over the concatenated dataset. The snapshot must have
// come from a run over base with the same MaxPatternLen; delta
// transaction ids must be strictly greater than snap.MaxTid (a disjoint
// append) and mutually distinct. Violations return an error wrapping
// ErrBorder — the caller's cue to fall back to a full re-mine. Support
// thresholds are re-resolved against base+delta, so a fractional minsup
// shifts the floor and the promote/demote logic absorbs it.
func MineDelta(ctx context.Context, base, delta *Dataset, snap *BorderSnapshot, opts Options) (*Result, error) {
	return MineDeltaMonitored(ctx, base, delta, snap, opts, nil, nil)
}

// MineDeltaMonitored is MineDelta with the service hooks of
// MineAutoMonitored: a caller-owned buffer pool and a per-iteration
// observer. The delta passes run on the executor under the caller's
// budget, workers and pool (never checkpointed), and onIter sees their
// stats once the refresh has succeeded; the fallback is
// MineAutoMonitored itself. With Options.RetainBorder the returned
// Result carries a refreshed snapshot for base+delta — the one a cold
// mine of base+delta keeps — so appends chain.
func MineDeltaMonitored(ctx context.Context, base, delta *Dataset, snap *BorderSnapshot, opts Options, pool *storage.Pool, onIter func(IterationStat)) (*Result, error) {
	start := time.Now()
	// Refuse the options MineAuto over base+delta refuses (no minimum
	// support, a fraction above 1) before anything else.
	if err := validate(base, opts); err != nil {
		return nil, err
	}
	if snap == nil || len(snap.Levels) == 0 {
		return nil, fmt.Errorf("%w: no snapshot", ErrBorder)
	}
	if opts.DisablePackedKernels {
		return nil, fmt.Errorf("%w: delta mining requires the packed executor", ErrBorder)
	}
	if opts.MaxPatternLen != snap.MaxPatternLen {
		return nil, fmt.Errorf("%w: snapshot mined with MaxPatternLen=%d, requested %d",
			ErrBorder, snap.MaxPatternLen, opts.MaxPatternLen)
	}
	if base.NumTransactions() != snap.NumTransactions {
		return nil, fmt.Errorf("%w: snapshot covers %d transactions, base has %d",
			ErrBorder, snap.NumTransactions, base.NumTransactions())
	}
	seen := make(map[int64]struct{}, len(delta.Transactions))
	for _, tx := range delta.Transactions {
		if tx.ID <= snap.MaxTid {
			return nil, fmt.Errorf("%w: delta trans_id %d not beyond base max %d", ErrBorder, tx.ID, snap.MaxTid)
		}
		if _, dup := seen[tx.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate delta trans_id %d", ErrBorder, tx.ID)
		}
		seen[tx.ID] = struct{}{}
	}
	remine := func() (*Result, error) {
		txns := append(slices.Clip(base.Transactions), delta.Transactions...)
		out, err := MineAutoMonitored(ctx, &Dataset{Transactions: txns}, opts, pool, onIter)
		if out != nil {
			out.Elapsed = time.Since(start)
		}
		return out, err
	}

	// Δ's SALES under the merged dictionary: unseen delta items get codes,
	// and the snapshot's keys are re-coded pass by pass (deltaSeed). A
	// delta without SALES rows adds nothing to count: it is mined cold.
	sales := packSales(delta)
	if len(sales.rows) == 0 {
		return remine()
	}
	dict, codeMap := extendDict(snap, sales.rows, len(delta.Transactions))
	dict.recode(sales.rows)
	n := base.NumTransactions() + delta.NumTransactions()
	o := opts
	o.MinSupportCount, o.Checkpoint = opts.ResolveMinSupport(n), nil
	st := monitoredStepper(ctx, delta, o, pool)
	st.retainBorder = true
	st.seed = &deltaSeed{snap: snap, codeMap: codeMap, oldBits: dictBits(len(snap.Items)),
		sales: salesMemo{dict: dict, baskets: sales, pairs: salesPairs(sales.rows, sales.starts)}}
	res, err := runPipeline(ctx, delta, o, st, nil, nil)
	if errors.Is(err, errBorderShift) {
		return remine()
	}
	if err != nil {
		return nil, err
	}
	res.NumTransactions = n
	if res.Border != nil {
		res.Border.NumTransactions, res.Border.SalesRows = n, snap.SalesRows+res.Border.SalesRows
	}
	if onIter != nil {
		for _, st := range res.Stats {
			onIter(st)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// errBorderShift stops a refresh whose pass k >= 2 promoted a pattern:
// its extensions over the base were never counted, so it re-mines.
var errBorderShift = errors.New("setm: the delta promoted a pattern past the snapshot's border")

// deltaSeed is what a refresh adds to the executor: Δ's SALES under the
// merged dictionary, which the passes run over, and the base's snapshot,
// whose level-k counts splitBorder adds into pass k's.
type deltaSeed struct {
	snap    *BorderSnapshot
	sales   salesMemo
	codeMap []uint64 // snapshot code -> merged code
	oldBits uint     // the snapshot's code width
	// ranks maps a rank in the base's F_{k-1} to the same pattern's rank in
	// this run's C_{k-1}, -1 if it demoted: level k's prefixes, set when
	// pass k-1 ends (rerank), before pass k's count reuses C_{k-1}'s buffers.
	ranks []int
}

// key re-codes one level-k snapshot key into this run's layout: each
// code through codeMap, and from k = 3 the prefix's rank through ranks;
// false when that prefix demoted. Both maps ascend, so a run of keys
// stays ascending.
func (sd *deltaSeed) key(key uint64, k int) (uint64, bool) {
	bits, mask := sd.sales.dict.bits, uint64(1)<<sd.oldBits-1
	if k >= 3 {
		r := sd.ranks[key>>sd.oldBits]
		return uint64(r)<<bits | sd.codeMap[key&mask], r >= 0
	}
	var nk uint64
	for c := k - 1; c >= 0; c-- {
		nk = nk<<bits | sd.codeMap[key>>(uint(c)*sd.oldBits)&mask]
	}
	return nk, true
}

// snapLevel is the snapshot's level k, empty past its last.
func (sd *deltaSeed) snapLevel(k int) *BorderLevel {
	if k > len(sd.snap.Levels) {
		return &BorderLevel{}
	}
	return &sd.snap.Levels[k-1]
}

// level is the snapshot's level k in this run's layout: its frequent run
// and its border, each ascending.
func (sd *deltaSeed) level(k int) []pkCounts {
	l := sd.snapLevel(k)
	runs := []pkCounts{{Keys: l.FreqKeys, Counts: l.FreqCounts}, {Keys: l.BorderKeys, Counts: l.BorderCounts}}
	for i, run := range runs {
		runs[i] = pkCounts{Keys: make([]uint64, 0, len(run.Keys)), Counts: make([]int64, 0, len(run.Keys))}
		for j, key := range run.Keys {
			if nk, ok := sd.key(key, k); ok {
				runs[i].Keys = append(runs[i].Keys, nk)
				runs[i].Counts = append(runs[i].Counts, run.Counts[j])
			}
		}
	}
	return runs
}

// rerank sets ranks for pass k+1: the i-th pattern of the base's F_k gets
// its rank in keys, this run's C_k, or -1. It reports false when keys
// holds a pattern the base's F_k lacks — a promotion.
func (sd *deltaSeed) rerank(k int, keys []uint64) bool {
	base := sd.snapLevel(k).FreqKeys
	ranks, found := make([]int, len(base)), 0
	for i, key := range base {
		nk, ok := sd.key(key, k)
		j, hit := slices.BinarySearch(keys, nk)
		ranks[i] = -1
		if ok && hit {
			ranks[i], found = j, found+1
		}
	}
	sd.ranks = ranks
	return found == len(keys)
}

// extendDict merges the distinct items of Δ's packSales rows into the
// snapshot's dictionary: the merged dictionary, and the map from snapshot
// codes to merged ones.
func extendDict(snap *BorderSnapshot, rows []prow, txns int) (*packDict, []uint64) {
	merged := slices.Clone(snap.Items)
	for _, r := range rows {
		if _, ok := slices.BinarySearch(snap.Items, int64(r.Key^tidFlip)); !ok {
			merged = append(merged, int64(r.Key^tidFlip))
		}
	}
	slices.Sort(merged)
	dict := newPackDict(slices.Compact(merged), txns, nil)
	codeMap := make([]uint64, len(snap.Items))
	for i, it := range snap.Items {
		codeMap[i] = dict.code(it)
	}
	return dict, codeMap
}
