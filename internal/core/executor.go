package core

// The adaptive mining executor. The paper's central argument (Sections
// 3.2 and 4.3) is that SETM's per-pass cost is predictable from relation
// cardinalities — which is exactly what lets a DBMS *plan* each pass
// instead of hard-coding a strategy. This file is that planner's engine
// room: one stepper that, at the top of every pipeline iteration, picks
// a strategy IR (IterPlan: kernel, memory regime, parallelism) from the
// cardinalities the previous iteration observed, then executes the
// iteration under it.
//
//   - kernel: the packed 64-bit key kernels of pack.go at every k. From
//     k = 3 a key is rank(prefix in C_{k-1}) << bits | last code, so its
//     width depends on |C_{k-1}|*2^bits, not on k; a pass whose keys
//     would not fit one word fails (keyFits) instead of aliasing them.
//     Pass 2 counts each basket's pairs straight off SALES whenever the
//     count table would count R'_2 (pairsPass), and so never writes
//     R'_2; MinePaged keeps the paper's materialized pass 2;
//   - regime resident|spilled: arena-backed in-RAM slices versus
//     budget-bounded spillable relations streaming to and from the page
//     store as raw packed-page runs, an extent at a time (spill.go);
//   - parallelism 1..N: a resident packed pass cuts R_{k-1} into one
//     contiguous chunk per worker, and each chunk of R'_k stays in its
//     worker's buffer through the count and the filter (stepResident); a
//     budget-bounded pass is serial — one cursor, one appender, one key
//     counter, sequential page access.
//
// nextPlan is the one place a pass is planned. It applies
// costmodel.ChoosePlan's rule to relation sizes: spilled when the projected
// footprint crosses the budget, else one worker per
// costmodel.ParallelMinRows rows of R_{k-1}, up to Options.MaxWorkers.
// MineAuto runs that rule as is, and MineMemory is MineAuto at one worker
// with no budget. MinePaged's plan is the paper's Section 4.3 algorithm
// instead: spilled whenever its budget is positive, always one worker. The
// plan each pass ran — its fan-out is the number of chunks it was cut
// into — is recorded in IterationStat.Plan, so benchmarks and EXPLAIN-style
// output show why each pass ran the way it did.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/xsort"
)

// IterPlan is the per-iteration strategy IR the executor commits to at
// the top of each SETM pass. Workers describes native plans only: a SQL
// pass always reports 1.
type IterPlan struct {
	// Kernel is "packed" (64-bit packed-key kernels, every executor pass)
	// or "generic" (the flat reference's int64 relation kernels, every
	// pass under DisablePackedKernels).
	Kernel string
	// Regime is "resident" (relations in RAM, no budget machinery) or
	// "spilled" (budget-bounded spillable relations; runs are written
	// only when a buffer actually outgrows its share).
	Regime string
	// Workers is the fan-out the iteration's kernels ran at; always 1 for
	// a pass that streamed through the spillable relations (the spilled
	// regime, and a resident plan whose inputs were still runs).
	Workers int
	// Count is the packed count step's kernel, known once the pass has
	// sized R'_k: "table" (direct-address counting table — the key space
	// was narrow enough to replace the sort buffers), "sort" (radix sort
	// + run count), or at k = 2 "pairs" (the table counts each basket's
	// pairs straight off SALES and a second scan emits R_2: R'_2 is never
	// written). Empty for the generic and SQL passes.
	Count string
}

// IterPlan vocabulary.
const (
	KernelPacked   = "packed"
	KernelGeneric  = "generic"
	KernelSQL      = "sql" // the SQL driver's engine-executed statements
	RegimeResident = "resident"
	RegimeSpilled  = "spilled"
	CountTable     = "table" // direct-address counting table, no sort
	CountSort      = "sort"  // radix sort (skipped when pre-sorted) + run count
	CountPairs     = "pairs" // pass 2's pairs counted off SALES on the table; R'_2 never written
)

// String renders the plan compactly: "packed/spilled/4w/table".
func (p IterPlan) String() string {
	if p.Kernel == "" {
		return ""
	}
	s := p.Kernel + "/" + p.Regime + "/" + strconv.Itoa(p.Workers) + "w"
	if p.Count != "" {
		s += "/" + p.Count
	}
	return s
}

// MineAuto runs Algorithm SETM under the adaptive executor: every
// iteration's memory regime and parallelism follow a rule on the previous
// iteration's observed cardinalities — spilled when the projected
// footprint crosses Options.MemoryBudget (<= 0: unbounded, fully
// resident), else one worker per costmodel.ParallelMinRows rows of
// R_{k-1}, up to the available CPUs (Options.MaxWorkers; budget-bounded
// passes are serial). Results are bit-identical whatever the plan; the
// plans run are recorded in Result.Stats[i].Plan.
func MineAuto(d *Dataset, opts Options) (*Result, error) {
	return MineAutoMonitored(context.Background(), d, opts, nil, nil)
}

// MineAutoMonitored is MineAuto under a context and with the hooks a
// long-running service needs. The executor polls ctx at every iteration
// boundary and — in the spilled regime — at block and merge
// granularity, so a cancelled job returns promptly with its arenas
// released, its partial spill runs recycled into the pool's free list,
// and zero pinned frames; the returned error wraps ctx.Err(). pool is a
// caller-owned buffer pool (so the caller can watch PinnedFrames and page
// I/O while the job runs; nil for a private pool; the job cuts the
// pool's run extent to its budget, so the pool serves one job at a
// time); onIter receives each IterationStat as the pass completes (nil
// for none). The executor itself is built in MineAutoResumeMonitored.
func MineAutoMonitored(ctx context.Context, d *Dataset, opts Options, pool *storage.Pool, onIter func(IterationStat)) (*Result, error) {
	return MineAutoResumeMonitored(ctx, d, opts, pool, onIter, nil)
}

// newExecStepper builds the executor; cfg supplies the pool geometry and
// page store for spilled regimes. The budget is taken from
// opts.MemoryBudget as-is: positive bounds the working set, zero or
// negative means unbounded (MinePaged resolves its pool-sized default
// before calling). MaxWorkers <= 0 means GOMAXPROCS.
func newExecStepper(d *Dataset, opts Options, cfg PagedConfig) *execStepper {
	workers := opts.MaxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &execStepper{
		d: d, opts: opts, cfg: cfg,
		budget: max(opts.MemoryBudget, 0), maxWorkers: workers,
		retainBorder: opts.RetainBorder,
	}
}

// execStepper is the adaptive executor: the one substrate behind
// MineMemory, MinePaged and MineAuto.
type execStepper struct {
	d    *Dataset
	opts Options
	cfg  PagedConfig

	budget     int64 // 0 = unbounded
	maxWorkers int

	// ctx, when non-nil, is polled by the streaming kernels every few
	// thousand rows, so a cancelled run stops between groups instead of
	// finishing the iteration; the error paths it triggers are the same
	// ones injected storage faults exercise, so cleanup (appender aborts,
	// run frees) is shared.
	ctx context.Context

	pool *storage.Pool // created by attachPool, or lazily at first spill

	dict    *packDict
	ar      *mineArena
	sales   *srel    // packed R_1, the join side of every pass
	baskets *baskets // the memo's basket index of R_1, which the extension looks rows up in
	rk      *srel    // R_{k-1}
	ck      pkCounts
	st      spillStats

	// The open accounting window (startIteration): page accesses and
	// spill totals when the pass began.
	ioStart int64
	stStart spillStats

	// The last completed pass's C_k, decoded, and its keys' index: pass
	// k+1 sizes its key space by the one, decodes through it, and ranks
	// the prefixes it extends through the other (pack.go's key layout).
	prevC []ItemsetCount
	idx   keyIndex

	avgBasket  float64
	salesTotal int64 // |packed SALES|, the checkpoint's dataset identity
	salesPairs int64 // |R'_2|, which the pairs pass's rule reads ahead of it
	prevRPrime int64
	prevRRows  int64

	// paperPaged is MinePaged's Section 4.3 algorithm: every pass is serial
	// and spilled under a positive budget (nextPlan), pass 2 writes R'_2,
	// and R_1 past its budget share lives on pages (buildJoinSide).
	paperPaged bool

	// Border retention (Options.RetainBorder): the count kernels run at
	// threshold 1 and splitBorder keeps the sub-minsup runs — the
	// negative border — per iteration. seed is a MineDelta refresh's base
	// snapshot, which splitBorder adds in, and Δ's SALES (delta.go).
	retainBorder bool
	borders      []pkCounts
	seed         *deltaSeed
}

// attachPool hands the executor a caller-owned buffer pool (MinePaged's,
// so its PagedResult.IO covers the whole run).
func (s *execStepper) attachPool(pool *storage.Pool) {
	s.pool = pool
	// Under a budget no open run buffers more than one chunk: an
	// appender's writer then holds no more than the resident rows it
	// replaced, and a small budget keeps about a page per open run.
	pool.LimitRunExtent(s.chunk())
}

// cancelled is the executor's cancellation checkpoint: nil while the run
// may continue, the context's error once it must stop. Kernels poll it
// every cancelCheckRows rows inside streaming loops.
func (s *execStepper) cancelled() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// cancelCheckRows is how many rows (or merged keys) a streaming loop
// processes between cancellation checkpoints — small enough that a
// cancelled spilled pass stops in well under a millisecond of work,
// large enough that ctx.Err()'s mutex never shows up in profiles.
const cancelCheckRows = 4096

// ensurePool creates the executor's private pool on first spill.
func (s *execStepper) ensurePool() {
	if s.pool == nil {
		store := s.cfg.Store
		if store == nil {
			store = storage.NewMemStore()
		}
		s.attachPool(storage.NewPool(store, s.cfg.PoolFrames))
	}
}

// nextPlan plans the upcoming packed iteration from the previous
// iteration's observed cardinalities by costmodel.ChoosePlan's rule, or,
// for MinePaged, as Section 4.3's serial pass, spilled under any positive
// budget (the regime's appenders write runs only if a buffer actually
// overflows its budget share). A spilled pass is serial either way.
func (s *execStepper) nextPlan(k int, prevRPrime, prevRRows int64) IterPlan {
	p := IterPlan{Kernel: KernelPacked, Regime: RegimeResident, Workers: 1}
	if s.paperPaged {
		if s.budget > 0 {
			p.Regime = RegimeSpilled
		}
		return p
	}
	c := costmodel.ChoosePlan(costmodel.PlanInput{
		K: k, PrevRPrime: prevRPrime, PrevRRows: prevRRows,
		AvgBasket: s.avgBasket, Budget: s.budget, Workers: s.maxWorkers,
		CountTableBytes: int64(s.tableCells(k)) * costmodel.CountCellBytes,
	})
	if c.Spill {
		p.Regime = RegimeSpilled
	}
	p.Workers = c.Workers
	return p
}

// chunk is the per-buffer share of the budget (four live bounded buffers:
// the R'_k appender, the key-sort buffer, the R_k appender, and the
// streaming cursor's scratch; R_1 is the data set's resident SALES,
// outside the budget). Zero when unbounded.
func (s *execStepper) chunk() int64 {
	if s.budget <= 0 {
		return 0
	}
	c := s.budget / 4
	if c < storage.PageSize {
		c = storage.PageSize
	}
	return c
}

// capRows is an appender's row bound, one chunk; 0 when unbounded.
func (s *execStepper) capRows() int {
	c := s.chunk()
	if c <= 0 {
		return 0
	}
	return max(int(c/costmodel.PackedRowBytes), rowsPerPage) // at least a page of rows
}

// capKeys is the key counter's bound, one chunk; 0 when unbounded.
func (s *execStepper) capKeys() int {
	c := s.chunk()
	if c <= 0 {
		return 0
	}
	return max(int(c/costmodel.PackedKeyBytes), storage.WordsPerPage) // at least a page of keys
}

// tableCells is pass k's count table size (0: the pass sorts) over its
// key space: bit-packed through k = 2, one 2^bits row per rank of
// C_{k-1} from k = 3. It reads C_{k-1} from prevC, so it holds from the
// top of pass k until the pass ends.
func (s *execStepper) tableCells(k int) int {
	return s.dict.countTableCells(s.dict.keySpace(k, len(s.prevC)))
}

// prefixes is the index pass k's extension ranks R_{k-1}'s keys in:
// nil through k = 2, whose keys stay bit-packed, C_{k-1}'s from k = 3.
func (s *execStepper) prefixes(k int) *keyIndex {
	if k <= 2 {
		return nil
	}
	return &s.idx
}

// endPass decodes pass k's frequent counts ck, indexes their keys for
// pass k's filter and pass k+1's extension, and makes them the C_{k-1}
// of the next pass.
func (s *execStepper) endPass(k int, ck pkCounts) []ItemsetCount {
	var cOut []ItemsetCount
	if k <= 2 {
		cOut = decodePatterns(ck, k, s.dict)
	} else {
		cOut = decodeRanked(ck, s.prevC, s.dict)
	}
	s.idx = buildKeyIndex(ck.keys, s.dict.keySpace(k, len(s.prevC)), s.ar)
	s.prevC = cOut
	return cOut
}

// countSup is the threshold the count kernels run at: minSup normally,
// 1 under border retention so every candidate run survives for
// splitBorder to partition.
func (s *execStepper) countSup(minSup int64) int64 {
	if s.retainBorder {
		return 1
	}
	return minSup
}

// splitBorder applies minSup to pass k's count list, made at threshold 1
// under border retention (a pass-through without): the frequent entries
// are compacted in place, as a minSup count would have made them, and the
// negative border is copied into this pass's slot, out of the arena. A
// refresh first adds the snapshot's level-k counts, and fails with
// errBorderShift when a pass k >= 2 promotes.
func (s *execStepper) splitBorder(k int, ck pkCounts, minSup int64) (pkCounts, error) {
	if !s.retainBorder {
		return ck, nil
	}
	if s.seed != nil {
		parts, n := append(s.seed.level(k), ck), 0
		for _, p := range parts {
			n += len(p.keys)
		}
		ck = mergePackedCounts(parts, 1, pkCounts{make([]uint64, 0, n), make([]int64, 0, n)})
	}
	var border pkCounts
	w := 0
	for i, c := range ck.counts {
		if c >= minSup {
			ck.keys[w], ck.counts[w] = ck.keys[i], c
			w++
		} else {
			border.keys = append(border.keys, ck.keys[i])
			border.counts = append(border.counts, c)
		}
	}
	s.borders = append(s.borders, border)
	s.ck = pkCounts{keys: ck.keys[:w], counts: ck.counts[:w]}
	if s.seed != nil && k >= 2 && !s.seed.rerank(k, s.ck.keys) {
		return s.ck, errBorderShift
	}
	return s.ck, nil
}

// startIteration opens the per-iteration accounting window.
func (s *execStepper) startIteration() {
	s.ioStart, s.stStart = 0, s.st
	if s.pool != nil {
		s.ioStart = s.pool.Stats.Accesses()
	}
}

// endIteration closes the window: it returns the pass's IterationStat —
// |R'_k|, |R_k| (s.rk by now), the skipped sorts, the plan and the spill
// accounting — and keeps the two sizes for the next pass's plan.
func (s *execStepper) endIteration(rPrime, skips int64, plan IterPlan) IterationStat {
	st := IterationStat{
		RPrimeRows: rPrime, RRows: s.rk.rows(), SortsSkipped: skips, Plan: plan,
		RunsSpilled: s.st.runs - s.stStart.runs, SpillBytes: s.st.bytes - s.stStart.bytes,
	}
	if s.pool != nil {
		st.PageIO = s.pool.Stats.Accesses() - s.ioStart
	}
	s.prevRPrime, s.prevRRows = rPrime, st.RRows
	return st
}

// open is what init and resume share: the dictionary comes first (the
// plan's count-kernel term needs its code width), and it and the packed
// SALES are the dataset's memo, built by the first mine and read by
// every one after. It takes an arena, plans pass 1 on |R_1| — creating
// the pool when that plan spills — and returns the plan and the packed
// SALES.
func (s *execStepper) open() (IterPlan, []prow) {
	var memo *salesMemo
	if s.seed != nil {
		memo = &s.seed.sales
	} else {
		memo = s.d.packed()
	}
	s.ar = newMineArena()
	s.dict = memo.dict
	s.baskets = &memo.baskets
	s.salesTotal, s.salesPairs = int64(len(memo.rows)), memo.pairs
	if n := len(s.d.Transactions); n > 0 {
		s.avgBasket = float64(s.salesTotal) / float64(n)
	}
	plan := s.nextPlan(1, s.salesTotal, s.salesTotal)
	if plan.Regime == RegimeSpilled {
		s.ensurePool()
	}
	return plan, memo.rows
}

func (s *execStepper) init(minSup int64) ([]ItemsetCount, IterationStat, error) {
	plan, mem := s.open()
	s.startIteration()

	// C_1: counts per item code. The rows are the data set's memo,
	// resident whatever the plan, which bounds only the working set beyond
	// them, streaming the keys through a budget-bounded counter.
	var skips int64
	var ck pkCounts
	var err error
	if plan.Regime == RegimeSpilled {
		ck, skips, plan.Count, err = s.countMemStreaming(mem, s.countSup(minSup))
		if err != nil {
			return nil, IterationStat{}, err
		}
	} else {
		chunks := chunkRows(mem, plan.Workers)
		plan.Workers = len(chunks)
		ck, plan.Count = s.countResident(chunks, s.tableCells(1), s.countSup(minSup), &skips)
	}
	if ck, err = s.splitBorder(1, ck, minSup); err != nil {
		return nil, IterationStat{}, err
	}
	c1 := decodePatterns(ck, 1, s.dict)
	s.prevC = c1

	sales, err := s.buildJoinSide(mem, plan)
	if err != nil {
		return nil, IterationStat{}, err
	}
	s.sales, s.rk = sales, sales
	return c1, s.endIteration(s.salesTotal, skips, plan), nil
}

// errKeyWidth tags a pass whose keys would not fit one 64-bit word.
var errKeyWidth = errors.New("setm: pattern keys outgrow 64 bits")

func (s *execStepper) step(k int, minSup int64) ([]ItemsetCount, IterationStat, error) {
	if !s.dict.keyFits(k, len(s.prevC)) {
		return nil, IterationStat{}, fmt.Errorf("%w: pass %d over %d prefixes of %d-bit codes", errKeyWidth, k, len(s.prevC), s.dict.bits)
	}
	plan := s.nextPlan(k, s.prevRPrime, s.prevRRows)
	s.startIteration()
	if s.pairsPass(k, plan) {
		return s.stepPairs(minSup, plan)
	}
	if plan.Regime == RegimeResident && s.rk.resident() && s.sales.resident() {
		return s.stepResident(k, minSup, plan)
	}
	// The streaming path also serves a resident plan whose *inputs* are
	// still spilled (the spilled→resident transition): unbounded
	// appenders then land the outputs in RAM. It is serial either way.
	s.ensurePool()
	plan.Workers = 1
	return s.stepStreaming(k, minSup, plan)
}

// pairsPass reports whether pass k counts pairs straight off SALES
// (pack.go's pairs pass) instead of writing R'_2: at k = 2 over SALES
// itself, when the count table would count R'_2 — the kernel rule against
// |R'_2|, or under a budget against the key counter's bounded buffers.
func (s *execStepper) pairsPass(k int, plan IterPlan) bool {
	if k != 2 || s.rk != s.sales || s.paperPaged {
		return false
	}
	keys := int(s.salesPairs)
	if plan.Regime == RegimeSpilled {
		keys = s.capKeys()
	}
	return countTableFits(s.tableCells(2), keys)
}

// stepPairs is pass 2 without R'_2, over SALES in place (resident: only
// paperPaged spills it, and that driver materializes R'_2). Scan 1 counts
// each chunk's pairs on its worker's table, summed and read out as C_2;
// scan 2 emits each chunk's pairs in C_2 into its worker's buffer,
// gathered into R_2 in SALES' order, or through a budget-bounded appender
// on a spilled (one-chunk) plan. The chunks are stepResident's, scanned in
// ranges of cancelCheckRows rows with a cancellation poll between them; a
// chunk's or a range's last basket pairs with its rows past the cut.
func (s *execStepper) stepPairs(minSup int64, plan IterPlan) ([]ItemsetCount, IterationStat, error) {
	sales, starts, ar, bits, cells := s.baskets.rows, s.baskets.starts, s.ar, s.dict.bits, s.tableCells(2)
	chunks := chunkRows(sales, plan.Workers)
	W := len(chunks)
	plan.Workers = W
	ar.workerSlots(W)
	lo := make([]int, W+1) // chunk i is sales[lo[i]:lo[i+1]]
	for i, c := range chunks {
		lo[i+1] = lo[i] + len(c)
	}
	errs := make([]error, W)
	eachChunk(W, func(i int) {
		tab := growU32(ar.wTab[i], cells)
		clear(tab)
		ar.wTab[i] = tab
		errs[i] = s.inRanges(lo[i], lo[i+1], func(a, b int) error {
			pairsCount(sales, starts, a, b, bits, tab)
			return nil
		})
	})
	if err := cmp.Or(errs...); err != nil {
		return nil, IterationStat{}, err
	}
	cOut, err := s.pairsC2(sumTables(ar.wTab[:W]), minSup)
	if err != nil {
		return nil, IterationStat{}, err
	}

	var rk *srel
	out := ar.rkBuf[:0]
	switch {
	case plan.Regime == RegimeSpilled:
		s.ensurePool()
		app := newSpillAppender(s.pool, s.capRows(), &s.st, &ar.rkBuf)
		defer app.abort(s.pool) // no-op once finished
		keep := &ar.wKeep[0]
		errs[0] = s.inRanges(0, len(sales), func(a, b int) error {
			*keep = pairsEmit(sales, starts, a, b, bits, &s.idx, (*keep)[:0])
			return app.add(*keep)
		})
		if errs[0] == nil {
			rk, errs[0] = app.finish()
		}
	case W == 1:
		errs[0] = s.inRanges(0, len(sales), func(a, b int) error {
			out = pairsEmit(sales, starts, a, b, bits, &s.idx, out)
			return nil
		})
	default:
		keep := ar.wKeep[:W]
		eachChunk(W, func(i int) {
			keep[i] = keep[i][:0]
			errs[i] = s.inRanges(lo[i], lo[i+1], func(a, b int) error {
				keep[i] = pairsEmit(sales, starts, a, b, bits, &s.idx, keep[i])
				return nil
			})
		})
		for _, c := range keep {
			out = append(out, c...)
		}
	}
	if err := cmp.Or(errs...); err != nil {
		return nil, IterationStat{}, err
	}
	if rk == nil {
		ar.rkBuf = out
		rk = memSrel(out)
	}
	// R_2 is the next pass's relation; |R'_2| is what the memo counted, and
	// three sorts are skipped, as on a table-counted pass.
	s.rk = rk
	plan.Count = CountPairs
	return cOut, s.endIteration(s.salesPairs, 3, plan), nil
}

// inRanges runs fn over the row ranges [a, b) that cut [lo, hi) every
// cancelCheckRows rows, polling for cancellation before each.
func (s *execStepper) inRanges(lo, hi int, fn func(a, b int) error) error {
	for a := lo; a < hi; a += cancelCheckRows {
		if err := s.cancelled(); err != nil {
			return err
		}
		if err := fn(a, min(a+cancelCheckRows, hi)); err != nil {
			return err
		}
	}
	return nil
}

// pairsC2 reads C_2 off a pairs pass's count table and ends the count
// step as every pass does (splitBorder, endPass).
func (s *execStepper) pairsC2(tab []uint32, minSup int64) ([]ItemsetCount, error) {
	s.ck = emitCountTable(tab, s.countSup(minSup), pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]})
	ck, err := s.splitBorder(2, s.ck, minSup)
	if err != nil {
		return nil, err
	}
	return s.endPass(2, ck), nil
}

// stepResident is the in-RAM fast path, and the one place sort → extend
// → count → filter is written for resident rows: the packed kernels of
// pack.go on arena-backed slices. No budget machinery, no cursors.
//
// The pass is independent per transaction, so it fans out by cutting
// R_{k-1} into the plan's chunks (chunkRows). Chunk i is extended into
// worker slot i and stays there through the count and the filter: R'_k,
// the pass's largest relation by an order of magnitude, is never
// gathered; only R_k's survivors are, so the next pass, checkpoints and
// the border see one contiguous relation. One chunk (a serial plan, or
// fewer than costmodel.ParallelMinRows rows) is the serial pass: slot 0,
// the filter straight into rkBuf, no goroutine.
func (s *execStepper) stepResident(k int, minSup int64, plan IterPlan) ([]ItemsetCount, IterationStat, error) {
	rk, ar, bits := s.rk.mem, s.ar, s.dict.bits

	var skips int64
	// sort R_{k-1} on (trans_id, items): the previous filter preserved
	// that order, so the pre-scan almost always skips this sort — and at
	// k=2 R_{k-1} is packed SALES, which packSales ordered — and which is
	// the dataset's memo, never to be written.
	if s.rk == s.sales || prowsSorted(rk) {
		skips++
	} else {
		ar.rowsTmp = growProws(ar.rowsTmp, len(rk))
		xsort.RadixSortRows(rk, ar.rowsTmp)
	}

	// R'_k := R_{k-1} ⋈ R_1, chunk by chunk, each row extended by the
	// suffix of its basket that packedExtend looks up; from k = 3 each
	// R_{k-1} row's rank in C_{k-1} becomes the prefix of its extensions'
	// keys.
	prefixes := s.prefixes(k)
	chunks := chunkRows(rk, plan.Workers)
	W := len(chunks)
	plan.Workers = W
	ar.workerSlots(W)
	rPrime := ar.wRows[:W]
	eachChunk(W, func(i int) {
		if cap(rPrime[i]) == 0 {
			// A cold buffer would grow by append: four times its final size
			// in abandoned copies, freed whenever the collector gets to
			// them, which makes the process's peak RSS differ by 100+ MB
			// from one run to the next. Count once, allocate once.
			rPrime[i] = make([]prow, 0, packedExtendRows(chunks[i], s.baskets, bits))
		}
		rPrime[i] = packedExtend(chunks[i], s.baskets, bits, prefixes, rPrime[i][:0])
	})
	var rPrimeRows int64
	for _, c := range rPrime {
		rPrimeRows += int64(len(c))
	}

	// C_k: count the key column of R'_k (on a table when the key space
	// is narrow, else by sorting a clone) chunk by chunk, merge, apply the
	// support threshold.
	ck, kernel := s.countResident(rPrime, s.tableCells(k), s.countSup(minSup), &skips)
	plan.Count = kernel
	ck, err := s.splitBorder(k, ck, minSup)
	if err != nil {
		return nil, IterationStat{}, err
	}
	cOut := s.endPass(k, ck)

	// R_k := filter R'_k by C_k. Filtering preserves (trans_id, items)
	// order within a chunk and the chunks are gathered in R_{k-1}'s order,
	// so the paper's post-filter sort is provably unnecessary.
	out := ar.rkBuf[:0]
	if W == 1 {
		out = s.idx.filter(rPrime[0], out)
	} else {
		keep := ar.wKeep[:W]
		eachChunk(W, func(i int) { keep[i] = s.idx.filter(rPrime[i], keep[i][:0]) })
		for _, c := range keep {
			out = append(out, c...)
		}
	}
	ar.rkBuf = out
	skips++
	s.rk = memSrel(out)
	return cOut, s.endIteration(rPrimeRows, skips, plan), nil
}

// chunkRows cuts rows into the chunks a resident pass fans out over: at
// most workers contiguous ranges of near-equal length, one — the serial
// pass — when workers is 1. The planner gives each worker at least
// costmodel.ParallelMinRows rows (costmodel.ChoosePlan), and a pass's plan
// reports the number of chunks it ran. A cut may fall inside a
// transaction: each row of R_{k-1} looks up its own basket of R_1.
func chunkRows(rows []prow, workers int) [][]prow {
	if workers <= 1 {
		return [][]prow{rows}
	}
	chunks := make([][]prow, 0, workers)
	size := (len(rows) + workers - 1) / workers
	for len(rows) > size {
		chunks = append(chunks, rows[:size])
		rows = rows[size:]
	}
	return append(chunks, rows)
}

// eachChunk runs fn(i) for every chunk index below n and waits: inline
// for one chunk (the serial pass starts no goroutine), one goroutine a
// chunk otherwise.
func eachChunk(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// countResident runs the in-RAM count kernel over a pass's chunks into
// the stepper's reused C_k buffers, on a table of cells cells if the
// kernel rule admits one.
func (s *execStepper) countResident(chunks [][]prow, cells int, minSup int64, skips *int64) (pkCounts, string) {
	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	ck, kernel := countRows(chunks, cells, minSup, s.ar, dst, skips)
	s.ck = ck
	return ck, kernel
}

// stepStreaming is the spillable path, one pass front to back: a group
// cursor over each input, one budget-bounded appender per output and one
// key counter. With a resident plan (the spilled→resident transition)
// the caps are simply unbounded and the outputs land in RAM.
func (s *execStepper) stepStreaming(k int, minSup int64, plan IterPlan) ([]ItemsetCount, IterationStat, error) {
	// sort R_{k-1} on (trans_id, items): relations are appended (and
	// spilled) in exactly that order, so the sort is provably redundant.
	skips := int64(1)

	capR, capK := 0, 0
	if plan.Regime == RegimeSpilled {
		capR, capK = s.capRows(), s.capKeys()
	}

	// R'_k := R_{k-1} ⋈ R_1, streamed a block of R_{k-1} at a time; output
	// inherits (trans_id, items) order, so it spills as one sequential run
	// with no sort. The key column is counted on the fly (fused with the
	// extension), saving a full re-read of R'_k. The appender's resident
	// portion is the arena's serial extension buffer (slot 0).
	s.ar.workerSlots(1)
	app := newSpillAppender(s.pool, capR, &s.st, &s.ar.wRows[0])
	defer app.abort(s.pool) // no-op once finished
	kc := s.keyCounterFor(k, capK)
	defer s.stashKeyCounter(kc)
	defer kc.abort() // no-op once finish has consumed the runs
	if err := s.extendStreaming(app, kc, s.prefixes(k)); err != nil {
		return nil, IterationStat{}, err
	}
	rPrime, err := app.finish()
	if err != nil {
		return nil, IterationStat{}, err
	}
	if s.rk != s.sales {
		s.rk.free(s.pool) // consumed; R_1 lives on
	}
	s.rk = nil

	// C_k: the fused counter's table read out, or its bounded radix runs
	// merged and counted.
	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	ck, kernel, err := kc.finish(s.countSup(minSup), dst)
	plan.Count = kernel
	skips += kc.skips
	if err != nil {
		rPrime.free(s.pool)
		return nil, IterationStat{}, err
	}
	s.ck = ck
	if ck, err = s.splitBorder(k, ck, minSup); err != nil {
		rPrime.free(s.pool)
		return nil, IterationStat{}, err
	}
	cOut := s.endPass(k, ck)

	// R_k := filter R'_k by C_k; filtering preserves (trans_id, items)
	// order, so the paper's post-filter sort is skipped.
	rk, err := s.filterStreaming(rPrime, capR)
	rPrimeRows := rPrime.rows()
	rPrime.free(s.pool)
	if err != nil {
		return nil, IterationStat{}, err
	}
	skips++
	s.rk = rk
	return cOut, s.endIteration(rPrimeRows, skips, plan), nil
}

// keyCounterFor builds pass k's key counter, bounded to capKeys (0:
// unbounded) and seeded with the arena's buffers — slot 0 of the
// per-worker scratch and tables serves serial passes.
func (s *execStepper) keyCounterFor(k, capKeys int) *keyCounter {
	s.ar.workerSlots(1)
	kc := newKeyCounter(s.ctx, s.pool, capKeys, mergeFanIn(s.pool, s.chunk()), s.tableCells(k), &s.st)
	kc.keys, kc.tmp, kc.tabBuf = s.ar.kcKeys[:0], s.ar.wTmp[0], s.ar.wTab[0]
	return kc
}

// stashKeyCounter returns the counter's (grown) buffers to the arena for
// the next pass.
func (s *execStepper) stashKeyCounter(kc *keyCounter) {
	s.ar.kcKeys, s.ar.wTmp[0], s.ar.wTab[0] = kc.keys, kc.tmp, kc.tabBuf
}

// extendStreaming extends R_{k-1} a block at a time, polling for
// cancellation before each, appending R'_k rows to app and their keys to
// kc. prefixes is as for packedExtend. Each block is looked up in the
// memo's baskets (packedExtend) whenever R_1 is resident, which is on
// every driver but MinePaged; a spilled R_1 is merge-scanned
// (extendMerged).
func (s *execStepper) extendStreaming(app *spillAppender, kc *keyCounter, prefixes *keyIndex) error {
	if !s.sales.resident() {
		return s.extendMerged(app, kc, prefixes)
	}
	it := rowsOf(s.pool, s.rk)
	defer it.close()
	ext := &s.ar.wKeep[0] // slot 0 is free in a serial pass
	for {
		if err := s.cancelled(); err != nil {
			return err
		}
		blk, err := it.next()
		if err != nil || blk == nil {
			return err
		}
		*ext = packedExtend(blk, s.baskets, s.dict.bits, prefixes, (*ext)[:0])
		if err := app.add(*ext); err != nil {
			return err
		}
		if err := kc.addRows(*ext); err != nil {
			return err
		}
	}
}

// extendMerged is Section 4.3's extension, MinePaged's once R_1 is on
// pages: the merge-scan of R_{k-1}'s transaction groups against the
// matching groups of R_1, appending R'_k rows to app and their keys to kc.
func (s *execStepper) extendMerged(app *spillAppender, kc *keyCounter, prefixes *keyIndex) error {
	if err := s.cancelled(); err != nil {
		return err
	}
	rkG := groupsOf(s.pool, s.rk)
	defer rkG.close()
	g1, err := rkG.next()
	if err != nil || g1 == nil {
		return err
	}
	// R_1 gets its own cursor even when R_{k-1} is the same relation
	// (iteration 2's self-join): each stream needs independent position.
	joinG := groupsOf(s.pool, s.sales)
	defer joinG.close()
	g2, err := joinG.next()
	if err != nil {
		return err
	}

	mask := uint64(1)<<s.dict.bits - 1
	var scratch []prow
	var sinceCheck int
	for g1 != nil && g2 != nil {
		if sinceCheck >= cancelCheckRows {
			sinceCheck = 0
			if err := s.cancelled(); err != nil {
				return err
			}
		}
		t1, t2 := g1[0].Tid, g2[0].Tid
		switch {
		case t1 < t2:
			g1, err = rkG.next()
			sinceCheck++
		case t1 > t2:
			g2, err = joinG.next()
			sinceCheck++
		default:
			scratch = scratch[:0]
			for _, p := range g1 {
				last, base := p.Key&mask, p.Key
				if prefixes != nil {
					base = prefixes.rank(p.Key)
				}
				base <<= s.dict.bits
				for _, q := range g2 {
					if q.Key > last {
						scratch = append(scratch, prow{Tid: t1, Key: base | q.Key})
					}
				}
			}
			if len(scratch) > 0 {
				if err := app.add(scratch); err != nil {
					return err
				}
				if err := kc.addRows(scratch); err != nil {
					return err
				}
				sinceCheck += len(scratch)
			}
			if g1, err = rkG.next(); err != nil {
				return err
			}
			g2, err = joinG.next()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// filterStreaming keeps the rows of r whose key occurs in the pass's
// C_k (s.idx), preserving order, a block at a time, into the arena's R_k
// buffer.
func (s *execStepper) filterStreaming(r *srel, capR int) (*srel, error) {
	app := newSpillAppender(s.pool, capR, &s.st, &s.ar.rkBuf)
	defer app.abort(s.pool) // no-op once finished
	it := rowsOf(s.pool, r)
	defer it.close()
	keep := &s.ar.wKeep[0] // slot 0 is free in a serial pass
	for {
		if err := s.cancelled(); err != nil {
			return nil, err
		}
		blk, err := it.next()
		if err != nil {
			return nil, err
		}
		if blk == nil {
			return app.finish()
		}
		*keep = s.idx.filter(blk, (*keep)[:0])
		if err := app.add(*keep); err != nil {
			return nil, err
		}
	}
}

// countMemStreaming streams the keys of resident rows through a
// budget-bounded counter, producing C_1 at minSup — the init path's count
// when the plan is spilled. Also returns the sort-skip tally and the count
// kernel that ran.
func (s *execStepper) countMemStreaming(mem []prow, minSup int64) (pkCounts, int64, string, error) {
	kc := s.keyCounterFor(1, s.capKeys())
	defer s.stashKeyCounter(kc)
	defer kc.abort() // no-op once finish has consumed the runs
	if err := s.inRanges(0, len(mem), func(a, b int) error { return kc.addRows(mem[a:b]) }); err != nil {
		return pkCounts{}, 0, "", err
	}
	dst := pkCounts{keys: s.ck.keys[:0], counts: s.ck.counts[:0]}
	ck, kernel, err := kc.finish(minSup, dst)
	if err != nil {
		return pkCounts{}, 0, "", err
	}
	s.ck = ck
	return ck, kc.skips, kernel, nil
}

// buildJoinSide turns the packed SALES rows into R_1, the join side of
// every pass, under the first pass's plan. The paper does not filter R_1
// by C_1 (Section 6.1), so R_1 is SALES itself: the data set's memo,
// resident for its life, which the passes read in place — a copy on
// pages would free no heap. MinePaged's passes alone read a spilled copy
// once R_1 outgrows its budget share, so that their page I/O is the
// Section 4.3 analysis', (n-1)·‖R_1‖ included.
func (s *execStepper) buildJoinSide(mem []prow, plan IterPlan) (*srel, error) {
	if capR := s.capRows(); s.paperPaged && plan.Regime == RegimeSpilled && capR > 0 && len(mem) > capR {
		run, err := xsort.SpillRows(s.pool, mem)
		if err != nil {
			return nil, err
		}
		s.st.addRun(run)
		return runSrel(run), nil
	}
	return memSrel(mem), nil
}

// release returns everything the stepper holds once the pipeline is done
// or has failed: the live relations' spilled runs go back to the pool's
// free list and the arena goes back to its pool. The kernels' error paths
// free their own appenders and counters; release reclaims the relations
// the stepper itself owns across iterations.
func (s *execStepper) release() {
	if s.pool != nil {
		if s.rk != nil && s.rk != s.sales {
			s.rk.free(s.pool)
		}
		if s.sales != nil {
			s.sales.free(s.pool)
		}
	}
	s.rk, s.sales, s.baskets, s.dict, s.idx = nil, nil, nil, nil, keyIndex{}
	if s.ar != nil {
		s.ar.release()
		s.ar = nil
	}
}

// writeCheckpoint persists the pipeline-built manifest plus the live
// R_k.
func (s *execStepper) writeCheckpoint(cfg *CheckpointConfig, cp *Checkpoint) (int64, error) {
	cp.SalesRows = s.salesTotal
	return saveCheckpoint(cfg, cp, s.pool, s.rk)
}

// resume rebuilds the executor as if iteration cp.K had just completed:
// the deterministic state (dictionary, packed SALES as R_1) is the
// dataset's memo, read exactly as init reads it, and R_K streams
// back from the checkpoint's run file through a budget-bounded appender,
// so resuming honors the *current* MemoryBudget even if the original run
// spilled differently. Integrity failures wrap ErrCheckpoint; the
// pipeline's fail path releases the stepper, so nothing leaks.
func (s *execStepper) resume(cp *Checkpoint) (IterationStat, error) {
	plan, mem := s.open()
	if cp.SalesRows != s.salesTotal {
		return IterationStat{}, fmt.Errorf("%w: packed SALES has %d rows, manifest says %d", ErrCheckpoint, s.salesTotal, cp.SalesRows)
	}

	sales, err := s.buildJoinSide(mem, plan)
	if err != nil {
		return IterationStat{}, err
	}
	s.sales = sales

	// C_K, re-coded from the manifest: the next pass ranks R_K's keys in
	// it, decodes through it and sizes its key space by it.
	var prev []ItemsetCount
	if cp.K >= 2 {
		prev = cp.Counts[cp.K-2]
	}
	ck, ok := encodeLevel(cp.Counts[cp.K-1], prev, cp.K, s.dict)
	if !ok || !keysSorted(ck.keys) {
		return IterationStat{}, fmt.Errorf("%w: C_%d does not code under this dataset's dictionary", ErrCheckpoint, cp.K)
	}
	s.ck = ck
	s.idx = buildKeyIndex(ck.keys, s.dict.keySpace(cp.K, len(prev)), s.ar)
	s.prevC = cp.Counts[cp.K-1]

	// R_K streams from the checkpoint under the regime the next iteration
	// would plan: a spilled plan bounds the reload the same way an
	// appender bounds a live iteration's output.
	capR := 0
	if s.nextPlan(cp.K+1, cp.RPrimeRows, cp.RRows).Regime == RegimeSpilled {
		s.ensurePool()
		capR = s.capRows()
	}
	app := newSpillAppender(s.pool, capR, &s.st, &s.ar.rkBuf)
	nb := uint64(len(s.baskets.tids))
	if err := readCheckpointRows(cp, func(rows []prow) error {
		if cerr := s.cancelled(); cerr != nil {
			return cerr
		}
		for _, r := range rows {
			if r.Tid >= nb {
				return fmt.Errorf("%w: R_%d row of basket %d, the dataset has %d", ErrCheckpoint, cp.K, r.Tid, nb)
			}
		}
		return app.add(rows)
	}); err != nil {
		app.abort(s.pool)
		return IterationStat{}, err
	}
	rk, err := app.finish()
	if err != nil {
		return IterationStat{}, err
	}
	s.rk = rk
	if rk.rows() != cp.RRows {
		return IterationStat{}, fmt.Errorf("%w: reloaded %d rows, manifest says %d", ErrCheckpoint, rk.rows(), cp.RRows)
	}
	s.prevRPrime, s.prevRRows = cp.RPrimeRows, cp.RRows
	return IterationStat{RPrimeRows: cp.RPrimeRows, RRows: rk.rows()}, nil
}
