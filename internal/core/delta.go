package core

// Incremental delta mining over a negative-border snapshot (border.go).
//
// The correctness argument rests on one property of SETM's candidate
// counts: a pattern p of length k generates rows in R'_k exactly when
// its (k-1)-prefix is frequent, and then it generates one row per
// supporting transaction — so the recorded count of every candidate
// (frequent or border) is p's TRUE support over the base dataset, not
// an artifact of the execution plan. Appending transactions therefore
// never changes a recorded count; it only adds the delta's own support:
//
//	support(p, base+delta) = snapshotCount(p) + support(p, delta)
//
// where snapshotCount is 0 for patterns absent from F_k ∪ border
// (absent means p occurs in no base transaction, or some proper prefix
// was infrequent). Per iteration, MineDelta runs the packed extension
// and count kernels over the DELTA rows only, sum-merges the result
// into the snapshot's counted candidates, and re-applies the (possibly
// shifted) minsup: frequent sets falling below demote, border sets
// crossing it promote. Demotions are exact — they only shrink the
// candidate set. A promotion at level k >= 2 is the one event that
// invalidates deeper levels: the promoted pattern's extensions over
// BASE transactions were never counted. That is the border shift that
// forces the fallback, and the fallback has one route: a plain MineAuto
// over base+delta (remine). Level-1 promotions never invalidate
// anything: the paper's R_1 is unfiltered SALES, so every pair
// occurring anywhere is a counted level-2 candidate. (Replaying the
// extension chain under the known F_2..F_k and resuming at k+1 was the
// other fallback route until PR 27; README "measured and deleted" has
// its pairs — do not rebuild it as a loop of its own.)

import (
	"context"
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
// observer. The pure delta path is resident and pool-free; the fallback
// is MineAutoMonitored itself, with its cancellation, spill, and zero-
// pinned-frames guarantees. With Options.RetainBorder the returned
// Result carries a refreshed snapshot for base+delta, so appends chain.
func MineDeltaMonitored(ctx context.Context, base, delta *Dataset, snap *BorderSnapshot, opts Options, pool *storage.Pool, onIter func(IterationStat)) (*Result, error) {
	start := time.Now()
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
	maxTid := snap.MaxTid
	seen := make(map[int64]struct{}, len(delta.Transactions))
	for _, tx := range delta.Transactions {
		if tx.ID <= snap.MaxTid {
			return nil, fmt.Errorf("%w: delta trans_id %d not beyond base max %d", ErrBorder, tx.ID, snap.MaxTid)
		}
		if _, dup := seen[tx.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate delta trans_id %d", ErrBorder, tx.ID)
		}
		seen[tx.ID] = struct{}{}
		if tx.ID > maxTid {
			maxTid = tx.ID
		}
	}

	// Extend the dictionary for unseen delta items; when it grows, the
	// snapshot's packed keys are re-coded under the merged dictionary
	// (order-preserving per position, so ascending key order survives).
	dict, codeMap, err := extendDict(snap, delta)
	if err != nil {
		return nil, err
	}

	m := &deltaMiner{
		ctx: ctx, base: base, delta: delta, snap: snap, opts: opts,
		pool: pool, onIter: onIter, start: start,
		dict: dict, codeMap: codeMap, oldBits: dictBits(len(snap.Items)),
		maxTid: maxTid,
	}
	return m.run()
}

// deltaMiner is the state of one incremental mine.
type deltaMiner struct {
	ctx    context.Context
	base   *Dataset
	delta  *Dataset
	snap   *BorderSnapshot
	opts   Options
	pool   *storage.Pool
	onIter func(IterationStat)
	start  time.Time

	dict    *packDict
	codeMap []uint64 // old code -> new code; nil when the dictionary is unchanged
	oldBits uint
	maxTid  int64

	deltaSales baskets    // Δ's SALES, basketized as a memo's
	freqs      []pkCounts // F_k(combined) per level, ascending packed keys
	borders    []pkCounts // negative border per level
}

func (m *deltaMiner) cancelled() error {
	if m.ctx == nil {
		return nil
	}
	if err := m.ctx.Err(); err != nil {
		return fmt.Errorf("setm: mining cancelled: %w", err)
	}
	return nil
}

func (m *deltaMiner) run() (*Result, error) {
	nCombined := m.base.NumTransactions() + m.delta.NumTransactions()
	minSup := m.opts.ResolveMinSupport(nCombined)
	res := &Result{NumTransactions: nCombined, MinSupport: minSup}

	// A private arena, never pooled: the count step reuses its scratch
	// across levels. The delta is packed under the base's dictionary, not
	// its own, so it bypasses the delta dataset's memo; its rows carry Δ's
	// own basket ordinals, which every level's extension looks up.
	var ar mineArena
	m.deltaSales = packSales(m.delta)
	m.dict.recode(m.deltaSales.rows)
	deltaR := m.deltaSales.rows

	var ext, rkBuf []prow
	k := 0
	for {
		if err := m.cancelled(); err != nil {
			return nil, err
		}
		k++
		iterStart := time.Now()
		rPrime := m.deltaSales.rows
		if k > 1 {
			ext = packedExtend(deltaR, &m.deltaSales, m.dict.bits, nil, ext[:0])
			rPrime = ext
		}
		rPrimeRows := int64(len(rPrime))
		skips := int64(1) // the R_{k-1} sort: order is preserved throughout
		dCounts, kernel := countRows([][]prow{rPrime}, m.dict.countTableCells(m.dict.bitSpace(k)), 1, &ar, pkCounts{}, &skips)

		baseAll, baseFreq := m.baseLevel(k)
		all := mergePackedCounts([]pkCounts{baseAll, dCounts}, 1, newPkCounts(len(baseAll.keys)+len(dCounts.keys)))
		freq, border := splitBorderCounts(all, minSup)
		m.freqs = append(m.freqs, freq)
		m.borders = append(m.borders, border)

		// R_k on the delta side (R_1 stays unfiltered, per Figure 4).
		if k > 1 {
			rkBuf = packedFilter(ext, freq.keys, rkBuf[:0])
			deltaR, rkBuf = rkBuf, deltaR[:0]
			if k == 2 {
				rkBuf = nil // was aliasing deltaSales
			}
		}

		res.Counts = append(res.Counts, decodePatterns(freq, k, m.dict))
		res.Stats = append(res.Stats, IterationStat{
			K: k, RPrimeRows: rPrimeRows, RRows: int64(len(deltaR)),
			RPaperBytes: int64(len(deltaR)) * paperTupleBytes(k),
			CCount:      len(freq.keys), SortsSkipped: skips,
			Plan:     IterPlan{Kernel: KernelDelta, Regime: RegimeResident, Workers: 1, Count: kernel},
			Duration: time.Since(iterStart),
		})

		if len(freq.keys) == 0 {
			break
		}
		if m.opts.MaxPatternLen > 0 && k >= m.opts.MaxPatternLen {
			break
		}
		// The border shift test: a frequent set at level k that the base
		// run did not have frequent (a promoted border set, or a pattern
		// the delta alone pushed over minsup) means level k+1 candidates
		// over BASE transactions were never counted. Level 1 is exempt:
		// R_1 is unfiltered, so the base border at level 2 counted every
		// pair regardless. Without promotions F_k(combined) ⊆ F_k(base),
		// so the loop can only run as deep as the snapshot; running off
		// its end means the invariant broke (a mismatched snapshot).
		// Either way: fall back.
		if k >= 2 && hasNewKey(freq.keys, baseFreq) || k+1 > len(m.snap.Levels) {
			return m.remine()
		}
	}

	trimEmptyTail(res)
	if m.onIter != nil {
		for _, st := range res.Stats {
			m.onIter(st)
		}
	}
	if m.opts.RetainBorder {
		res.Border = m.assembleBorder(minSup, nCombined)
	}
	res.Elapsed = time.Since(m.start)
	return res, nil
}

// baseLevel returns the snapshot's level-k candidates — frequent and
// border merged into one ascending counted run, keys re-coded under the
// extended dictionary — plus the frequent keys alone (the promotion
// test's reference). Levels past the snapshot are empty.
func (m *deltaMiner) baseLevel(k int) (all pkCounts, freqKeys []uint64) {
	if k > len(m.snap.Levels) {
		return pkCounts{}, nil
	}
	l := &m.snap.Levels[k-1]
	fk := m.remapKeys(l.FreqKeys, k)
	bk := m.remapKeys(l.BorderKeys, k)
	// A level's frequent set and border share no key: the sum-merge
	// only interleaves them.
	all = mergePackedCounts([]pkCounts{
		{keys: fk, counts: l.FreqCounts},
		{keys: bk, counts: l.BorderCounts},
	}, 1, newPkCounts(len(fk)+len(bk)))
	return all, fk
}

// remapKeys re-codes packed keys from the snapshot dictionary to the
// extended one. Each position's mapping is strictly monotone, so the
// ascending order of the input is preserved. Returns the input when the
// dictionary did not change.
func (m *deltaMiner) remapKeys(in []uint64, k int) []uint64 {
	if m.codeMap == nil {
		return in
	}
	out := make([]uint64, len(in))
	oldMask := uint64(1)<<m.oldBits - 1
	for i, key := range in {
		var nk uint64
		for c := k - 1; c >= 0; c-- {
			code := (key >> (uint(c) * m.oldBits)) & oldMask
			nk = nk<<m.dict.bits | m.codeMap[code]
		}
		out[i] = nk
	}
	return out
}

// remine is the fallback, whole: a cold MineAuto over base+delta under
// the caller's options, pool and observer — what the delta prefix already
// computed is dropped, and with RetainBorder the refreshed snapshot is the
// one that cold mine retains. Still one call, still exact, just not
// incremental: a fallback costs a cold mine plus the prefix already paid
// (BenchmarkDeltaVsCold: 1.1–1.7x cold at one P).
func (m *deltaMiner) remine() (*Result, error) {
	txns := make([]Transaction, 0, len(m.base.Transactions)+len(m.delta.Transactions))
	txns = append(txns, m.base.Transactions...)
	txns = append(txns, m.delta.Transactions...)
	out, err := MineAutoMonitored(m.ctx, &Dataset{Transactions: txns}, m.opts, m.pool, m.onIter)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(m.start)
	return out, nil
}

// assembleBorder builds the pure delta path's refreshed snapshot: every
// level's merged frequent set and border.
func (m *deltaMiner) assembleBorder(minSup int64, nCombined int) *BorderSnapshot {
	b := &BorderSnapshot{
		MinSup:          minSup,
		NumTransactions: nCombined,
		SalesRows:       m.snap.SalesRows + int64(len(m.deltaSales.rows)),
		MaxTid:          m.maxTid,
		MaxPatternLen:   m.opts.MaxPatternLen,
		Items:           m.dict.items,
		Levels:          make([]BorderLevel, len(m.freqs)),
	}
	for i, freq := range m.freqs {
		b.Levels[i] = BorderLevel{
			FreqKeys: freq.keys, FreqCounts: freq.counts,
			BorderKeys: m.borders[i].keys, BorderCounts: m.borders[i].counts,
		}
	}
	return b
}

// extendDict merges the delta's distinct items into the snapshot
// dictionary. Returns the merged dictionary and, when it differs from
// the snapshot's, the old-code -> new-code map. Fails (wrapping
// ErrBorder) if any snapshot level's patterns would no longer fit a
// 64-bit key under the wider codes.
func extendDict(snap *BorderSnapshot, delta *Dataset) (*packDict, []uint64, error) {
	seen := make(map[int64]struct{})
	var extra []int64
	for _, tx := range delta.Transactions {
		for _, it := range tx.Items {
			if _, ok := seen[it]; ok {
				continue
			}
			seen[it] = struct{}{}
			if _, ok := slices.BinarySearch(snap.Items, it); !ok {
				extra = append(extra, it)
			}
		}
	}
	if len(extra) == 0 {
		return newPackDict(snap.Items, len(delta.Transactions), nil), nil, nil
	}
	merged := make([]int64, 0, len(snap.Items)+len(extra))
	merged = append(merged, snap.Items...)
	merged = append(merged, extra...)
	slices.Sort(merged)
	dict := newPackDict(merged, len(delta.Transactions), nil)
	if dict.bits != dictBits(len(snap.Items)) {
		for k := range snap.Levels {
			if uint(k+1)*dict.bits > 64 {
				return nil, nil, fmt.Errorf("%w: level %d patterns exceed 64-bit keys under the extended dictionary", ErrBorder, k+1)
			}
		}
	}
	codeMap := make([]uint64, len(snap.Items))
	for i, it := range snap.Items {
		codeMap[i] = dict.code(it)
	}
	return dict, codeMap, nil
}

// hasNewKey reports whether ascending keys contains an entry absent
// from the ascending reference — the promotion detector.
func hasNewKey(keys, ref []uint64) bool {
	j := 0
	for _, k := range keys {
		for j < len(ref) && ref[j] < k {
			j++
		}
		if j >= len(ref) || ref[j] != k {
			return true
		}
	}
	return false
}
