// Package costmodel re-derives the paper's analytical evaluations: the
// nested-loop strategy's page-fetch estimate of Section 3.2 and the
// sort-merge strategy's page-access bound of Section 4.3. Every published
// intermediate number (index shapes, per-tuple fetch counts, relation page
// footprints, total accesses, seconds) is a computed quantity here, with
// tests pinning them to the paper's values.
package costmodel

import (
	"fmt"
	"math"
)

// DBParams are the storage-system constants of Section 3.2.
type DBParams struct {
	// UsablePageBytes is the per-page payload. The paper's arithmetic
	// (500 8-byte entries, 333 12-byte entries, 1000 4-byte entries per
	// 4 KB page) implies 4,000 usable bytes per page.
	UsablePageBytes int
	// ItemBytes and TidBytes are the field widths (4 each).
	ItemBytes int
	TidBytes  int
	// PtrBytes is the page-pointer width in non-leaf index entries (4).
	PtrBytes int
	// RandomPageMs is the cost of a random page fetch (20 ms).
	RandomPageMs float64
	// SeqPageMs is the cost of a sequential page access (10 ms).
	SeqPageMs float64
}

// PaperDBParams returns the constants used throughout the paper.
func PaperDBParams() DBParams {
	return DBParams{
		UsablePageBytes: 4000,
		ItemBytes:       4,
		TidBytes:        4,
		PtrBytes:        4,
		RandomPageMs:    20,
		SeqPageMs:       10,
	}
}

// UniformWorkload is the hypothetical retailing database of Section 3.2:
// items sold with equal probability.
type UniformWorkload struct {
	NumItems    int // 1,000
	NumTxns     int // 200,000
	ItemsPerTxn int // 10
}

// PaperWorkload returns the Section 3.2 parameters.
func PaperWorkload() UniformWorkload {
	return UniformWorkload{NumItems: 1000, NumTxns: 200000, ItemsPerTxn: 10}
}

// SalesTuples is the cardinality of SALES (2 million in the paper).
func (w UniformWorkload) SalesTuples() int64 {
	return int64(w.NumTxns) * int64(w.ItemsPerTxn)
}

// ItemProb is the probability an item appears in a transaction (1%).
func (w UniformWorkload) ItemProb() float64 {
	return float64(w.ItemsPerTxn) / float64(w.NumItems)
}

// IndexShape describes a B+-tree as the paper sizes it.
type IndexShape struct {
	EntriesPerLeaf    int
	LeafPages         int64
	EntriesPerNonLeaf int
	NonLeafPages      int64
	Levels            int
}

// BTreeShape sizes a data-containing B+-tree with numEntries leaf entries
// of entryBytes each, following Section 3.2: leaf pages hold the entries,
// non-leaf entries add a pointer, and non-leaf levels shrink by the fanout
// until one page remains.
func BTreeShape(numEntries int64, entryBytes int, p DBParams) IndexShape {
	s := IndexShape{
		EntriesPerLeaf:    p.UsablePageBytes / entryBytes,
		EntriesPerNonLeaf: p.UsablePageBytes / (entryBytes + p.PtrBytes),
	}
	s.LeafPages = ceilDiv(numEntries, int64(s.EntriesPerLeaf))
	s.Levels = 1
	pages := s.LeafPages
	for pages > 1 {
		pages = ceilDiv(pages, int64(s.EntriesPerNonLeaf))
		s.NonLeafPages += pages
		s.Levels++
	}
	return s
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// NestedLoopReport is the Section 3.2 analysis of generating C_2.
type NestedLoopReport struct {
	// ItemTid is the (item, trans_id) index: 4,000 leaf pages, 3 levels,
	// 14 non-leaf pages in the paper.
	ItemTid IndexShape
	// Tid is the (trans_id) index: 2,000 leaf pages, 5 non-leaf pages.
	Tid IndexShape
	// C1Size is the cardinality of C_1 (1,000 — every item qualifies).
	C1Size int64
	// LeafFetchesPerC1Tuple is the (item, trans_id) leaf pages touched per
	// C_1 tuple (≈40).
	LeafFetchesPerC1Tuple int64
	// TidFetchesPerC1Tuple is one fetch per matching transaction (≈2,000).
	TidFetchesPerC1Tuple int64
	// TotalFetches is the head-line number (≈2,000,000 in the paper).
	TotalFetches int64
	// Seconds at RandomPageMs per fetch (≈40,000 s, "more than 11 hours").
	Seconds float64
}

// NestedLoopAnalysis reproduces Section 3.2 for generating C_2 with the
// given minimum support fraction (0.5% in the paper).
func NestedLoopAnalysis(w UniformWorkload, p DBParams, minSupFrac float64) NestedLoopReport {
	r := NestedLoopReport{
		ItemTid: BTreeShape(w.SalesTuples(), p.ItemBytes+p.TidBytes, p),
		Tid:     BTreeShape(w.SalesTuples(), p.TidBytes, p),
	}
	// With uniform probabilities every item has support ItemProb (1%),
	// above the 0.5% minimum: all items qualify.
	if w.ItemProb() >= minSupFrac {
		r.C1Size = int64(w.NumItems)
	}
	r.LeafFetchesPerC1Tuple = int64(math.Round(w.ItemProb() * float64(r.ItemTid.LeafPages)))
	r.TidFetchesPerC1Tuple = int64(math.Round(w.ItemProb() * float64(w.NumTxns)))
	r.TotalFetches = r.C1Size * (r.LeafFetchesPerC1Tuple + r.TidFetchesPerC1Tuple)
	r.Seconds = float64(r.TotalFetches) * p.RandomPageMs / 1000
	return r
}

// RTuples is |R_i| in the worst case (no support elimination): every
// transaction contributes C(ItemsPerTxn, i) lexicographically ordered
// patterns.
func (w UniformWorkload) RTuples(i int) int64 {
	return binom(w.ItemsPerTxn, i) * int64(w.NumTxns)
}

func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := int64(1)
	for i := 0; i < k; i++ {
		out = out * int64(n-i) / int64(i+1)
	}
	return out
}

// RPages is ‖R_i‖: pages to store R_i with (i+1) 4-byte fields per tuple.
// The paper divides total bytes by usable page bytes (9M tuples × 12 B /
// 4,000 B = 27,000 pages) rather than flooring tuples per page; we follow
// suit so the published numbers reproduce exactly.
func RPages(w UniformWorkload, p DBParams, i int) int64 {
	tupleBytes := int64(i+1) * int64(p.ItemBytes)
	return ceilDiv(w.RTuples(i)*tupleBytes, int64(p.UsablePageBytes))
}

// SortMergeReport is the Section 4.3 analysis.
type SortMergeReport struct {
	// RPages[i-1] = ‖R_i‖ (paper: ‖R_1‖ = 4,000, ‖R_2‖ = 27,000).
	RPages []int64
	// FormulaAccesses evaluates the bound from the text:
	// (n−1)‖R_1‖ + Σ_{i=2}^{n−1}‖R_i‖ (merge-scan reads)
	// + Σ_{i=2}^{n}‖R'_i‖ (writes) + 2 Σ_{i=2}^{n}‖R'_i‖ (sort read+write),
	// with the worst case ‖R'_i‖ = ‖R_i‖.
	FormulaAccesses int64
	// HeadlineAccesses is the number as the paper presents it for n = 3:
	// 3·‖R_1‖ + 4·‖R_2‖ = 120,000. (The text's formula evaluates to
	// 116,000; the paper rounds up by folding in R_1's initial pass.)
	HeadlineAccesses int64
	// Seconds at SeqPageMs per access (paper: 1,200 s ≈ 10 minutes).
	Seconds float64
	// SpeedupVsNestedLoop compares against the Section 3.2 estimate.
	SpeedupVsNestedLoop float64
}

// SortMergeAnalysis reproduces Section 4.3: n is the first empty iteration
// (3 in the paper: "let R_3 be empty").
func SortMergeAnalysis(w UniformWorkload, p DBParams, n int) SortMergeReport {
	r := SortMergeReport{}
	for i := 1; i < n; i++ {
		r.RPages = append(r.RPages, RPages(w, p, i))
	}
	r1 := r.RPages[0]
	// Merge-scan reads: (n−1) passes over R_1 plus each stored R_i input.
	mergeReads := int64(n-1) * r1
	for i := 2; i <= n-1; i++ {
		mergeReads += r.RPages[i-1]
	}
	// Writes of the R'_i outputs and the re-read/re-write of each sort;
	// R'_n is empty by assumption, so sums run through n−1.
	var writes, sortIO int64
	for i := 2; i <= n-1; i++ {
		writes += r.RPages[i-1]
		sortIO += 2 * r.RPages[i-1]
	}
	r.FormulaAccesses = mergeReads + writes + sortIO
	if n == 3 {
		r.HeadlineAccesses = 3*r.RPages[0] + 4*r.RPages[1]
	} else {
		r.HeadlineAccesses = r.FormulaAccesses
	}
	r.Seconds = float64(r.HeadlineAccesses) * p.SeqPageMs / 1000
	nl := NestedLoopAnalysis(w, p, 0.005)
	if r.Seconds > 0 {
		r.SpeedupVsNestedLoop = nl.Seconds / r.Seconds
	}
	return r
}

// Planner cardinality constants, System-R style: without histograms an
// equality conjunct is assumed to keep 1/10 of its input, a range
// comparison about 1/3, anything else 1/4, and a GROUP BY to emit one
// group per ten input rows. EXPLAIN ANALYZE shows how far they are off.
const (
	DefaultSelEquality = 0.10
	DefaultSelRange    = 0.30
	DefaultSelDefault  = 0.25
	DefaultGroupFrac   = 0.10
)

// QError is the symmetric estimation-error factor max(est/act, act/est),
// the standard cardinality-estimation quality metric; 1 is a perfect
// estimate. Zero counts are smoothed to 1 row.
func QError(est, act int64) float64 {
	e, a := float64(est), float64(act)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// ---------------------------------------------------------------------------
// Packed-run arithmetic
//
// The out-of-core packed pipeline stores (tid, key) rows as raw 16-byte
// pairs (and bare key columns as 8-byte words) in fully packed 4 KB
// pages — no tuple encoding, no headers. The spill-vs-RAM decision is a
// byte comparison against the memory budget.
// These formulas give the planner and the drivers one shared source for
// that arithmetic.

// PackedRowBytes is the width of one packed (tid, key) row.
const PackedRowBytes = 16

// PackedKeyBytes is the width of one packed key word.
const PackedKeyBytes = 8

// packedPageBytes is the full page payload of a packed run; unlike the
// tuple model's UsablePageBytes there is no header overhead (matches
// storage.PageSize).
const packedPageBytes = 4096

// PackedPages is the page footprint of rows packed at bytesPerRow with
// no encoding overhead.
func PackedPages(rows, bytesPerRow int64) int64 {
	if rows <= 0 {
		return 0
	}
	return ceilDiv(rows*bytesPerRow, packedPageBytes)
}

// ---------------------------------------------------------------------------
// Per-iteration executor planning
//
// The adaptive mining executor chooses a strategy at the top of every
// SETM iteration — which kernel to run, whether the iteration's
// relations stay resident or stream through the buffer pool as packed
// runs, and how many workers to fan the kernels across — from the
// cardinalities the previous iteration *observed*. The functions below
// are the shared arithmetic for that choice: the paper's point (Sections
// 3.2/4.3) is precisely that SETM's per-pass cost is predictable from
// relation sizes, so the regime is a footprint against the budget and
// the fan-out a rows-per-worker rule, both read off those sizes.

// EstRPrimeRows projects |R'_k| from the observed |R_{k-1}| and the mean
// basket size |R_1|/|transactions|: a surviving length-(k-1) pattern is
// extended by the basket items greater than its last item — on average
// half the basket. The projection is the planner's working estimate, not
// a bound; the spilled regime's appenders enforce the budget regardless
// of how the estimate errs.
func EstRPrimeRows(prevRRows int64, avgBasket float64) int64 {
	if prevRRows <= 0 {
		return 0
	}
	ext := avgBasket / 2
	if ext < 1 || math.IsNaN(ext) {
		ext = 1
	}
	est := float64(prevRRows) * ext
	// Saturate: adversarial cardinalities must clamp, not wrap negative.
	if est >= float64(maxModelRows) {
		return maxModelRows
	}
	return int64(est)
}

// maxModelRows saturates the planner's row projections so the byte
// arithmetic downstream (tens of bytes per row) cannot overflow int64.
const maxModelRows = int64(1) << 56

// CountTableFits is the count step's kernel rule, shared by the planner
// and the executor: counting keys keys on a direct-address table of
// tableBytes (one uint32 cell per point of the packed key space) instead
// of sorting them is allowed exactly when the table is no larger than
// the sort buffers it replaces — the key-column clone plus the radix
// scratch, 2·PackedKeyBytes per key. tableBytes <= 0 means the key space
// admits no table (too wide for the executor's cap).
func CountTableFits(tableBytes, keys int64) bool {
	if keys > maxModelRows {
		keys = maxModelRows
	}
	return tableBytes > 0 && tableBytes <= 2*PackedKeyBytes*keys
}

// PackedIterFootprint models the resident bytes one packed SETM
// iteration needs for estRPrime candidate rows: the materialized R'_k
// rows, the filtered R_k (worst case: every candidate survives), and the
// count step's working set — the key column it sorts, or countTableBytes
// of counting table when CountTableFits says the pass counts without a
// sort (pass 0 when the key width is unknown: the sort kernel's charge).
func PackedIterFootprint(estRPrime, countTableBytes int64) int64 {
	if estRPrime <= 0 {
		return 0
	}
	if estRPrime > maxModelRows {
		estRPrime = maxModelRows
	}
	if CountTableFits(countTableBytes, estRPrime) {
		return estRPrime*(PackedRowBytes+PackedRowBytes) + countTableBytes
	}
	return estRPrime * (PackedRowBytes + PackedKeyBytes + PackedRowBytes)
}

// spilledIterFloor is the least a budget-bounded iteration holds however
// small its budget: a page for each of its four budget chunks (R'_k rows,
// the key sort, R_k rows, cursor scratch) and for each of the three run
// buffers a worker keeps open (two cursors, one writer). Above it the run
// buffers are cut to fit inside the chunks, so the budget itself is the
// charge.
const spilledIterFloor = 7 * packedPageBytes

// capSpilledIter caps an iteration's modeled working set at what the
// spilled regime holds under memBudget (<= 0: unbounded, no cap).
func capSpilledIter(iter, memBudget int64) int64 {
	if memBudget <= 0 {
		return iter
	}
	return min(iter, max(memBudget, spilledIterFloor))
}

// MineFootprint estimates the peak resident bytes one whole mining job
// needs: the packed R_1 relation (salesRows (tid, key) rows, resident
// for every iteration's merge-scan: the data set's packed memo, which
// the first mine builds and later ones share, so charging it to every
// job keeps the sum an upper estimate) plus the dominant iteration's
// working set, projected from the first extension — the largest R'_k a
// run produces. A positive memBudget caps the iteration term, because
// the spilled regime streams past the budget instead of growing the
// working set (down to the one-page floor of the buffers it cannot do
// without, spilledIterFloor); an unbounded job (memBudget <= 0) is charged its full
// projected footprint. This is the admission-control estimate a mining
// service sums across running jobs against its global memory budget —
// a planning quantity with the same contract as the rest of this file:
// good enough to rank and bound, not a guarantee. The estimate reads no
// item dictionary, so the count step is charged as the
// sort kernel; the counting table the executor may pick instead is never
// larger than the sort buffers, so this stays an upper estimate.
func MineFootprint(salesRows int64, avgBasket float64, memBudget int64) int64 {
	if salesRows <= 0 {
		return packedPageBytes
	}
	if salesRows > maxModelRows {
		salesRows = maxModelRows
	}
	r1 := salesRows * PackedRowBytes
	iter := capSpilledIter(PackedIterFootprint(EstRPrimeRows(salesRows, avgBasket), 0), memBudget)
	total := r1 + iter
	if total < packedPageBytes {
		total = packedPageBytes
	}
	return total
}

// DeltaFootprint estimates the peak resident bytes one incremental
// (border-snapshot) refresh needs: the packed delta rows (resident for
// every iteration's merge-scan), the dominant delta iteration's working
// set projected from the delta's own first extension, and the candidate
// sum-merge — the snapshot's counted (key, count) entries plus the
// merged output, ~24 bytes per entry per side. A positive memBudget
// caps the iteration term exactly as MineFootprint does: past the
// budget the delta path falls back to the spilling executor, which
// streams instead of growing. This is the admission-control charge for
// a delta mine — strictly smaller than MineFootprint of the combined
// dataset whenever the delta is small, which is the point.
func DeltaFootprint(deltaRows int64, avgBasket float64, borderCandidates, memBudget int64) int64 {
	if deltaRows < 0 {
		deltaRows = 0
	}
	if deltaRows > maxModelRows {
		deltaRows = maxModelRows
	}
	if borderCandidates < 0 {
		borderCandidates = 0
	}
	if borderCandidates > maxModelRows {
		borderCandidates = maxModelRows
	}
	rows := deltaRows * PackedRowBytes
	iter := capSpilledIter(PackedIterFootprint(EstRPrimeRows(deltaRows, avgBasket), 0), memBudget)
	// Snapshot candidates live once as input and once in the merged
	// output: (key, count) pairs both sides.
	merge := borderCandidates * 2 * (PackedKeyBytes + PackedCountBytes)
	total := rows + iter + merge
	if total < packedPageBytes {
		total = packedPageBytes
	}
	return total
}

// PackedCountBytes is the width of one support counter riding next to a
// packed key in a counted run.
const PackedCountBytes = 8

// CountCellBytes is the width of one cell of the count step's
// direct-address table.
const CountCellBytes = 4

// PlanInput is what the executor observed going into an iteration.
type PlanInput struct {
	K         int   // pattern length of the upcoming iteration
	PrevRRows int64 // |R_{k-1}| observed after the previous filter; sets the fan-out
	// PrevRPrime is |R'_{k-1}| observed before the filter; from k >= 3 it
	// caps the basket-based |R'_k| projection (see ChoosePlan).
	PrevRPrime int64
	AvgBasket  float64 // |R_1| / |transactions|
	Budget     int64   // remaining MemoryBudget in bytes (<= 0: unbounded)
	Workers    int     // available CPUs (caller caps by Options.MaxWorkers)
	// CountTableBytes is the size of a direct-address count table over
	// the upcoming pass's key space: 4·2^(K·bitsPerItem) while K <= 2,
	// 4·|C_{K−1}|·2^bitsPerItem from K = 3, where a pattern's key is its
	// prefix's rank in C_{K−1} and its last item's code. Zero when the
	// key space is wider than the executor's table cap (or unknown).
	CountTableBytes int64
}

// PlanChoice is ChoosePlan's decision, in engine-neutral terms.
type PlanChoice struct {
	Spill bool // budget-bounded spilled regime instead of resident
	// Workers is the fan-out (>= 1; always 1 when Spill: a budget-bounded
	// pass is serial).
	Workers int
}

// ParallelMinRows is the fewest rows of R_{k-1} a worker of a resident
// pass is given: a pass fans out to one worker per ParallelMinRows rows,
// up to the CPUs available, and core's chunkRows keeps a relation under
// it in one chunk. The value is the original guess, kept because no
// measured size beats it: core's BenchmarkPassFanOut (-cpu 2 -benchtime
// 10x, two runs on a 2-vCPU AMD EPYC VM, 2026-10-17) finds no per-worker
// |R_{k-1}| from which two workers beat one in >= 9 of 10 alternating
// pairs on every larger pass of both quest and retail. Quest clears it
// only from 514k rows a worker (scale 1.0, k = 1 and 2: at least 9 of 10
// in each run); below that the wins scatter (k = 2 at 155k rows a
// worker: 7 and 10; k = 3 at 36k: 5 and 2; k = 3 at 13k: 10 and 10).
// Retail's largest passes, k = 1 and 2 at 58k rows a worker, won 5 and
// 2, and 10 and 10.
const ParallelMinRows = 2048

// ChoosePlan picks a packed-key iteration's strategy from observed
// cardinalities, by rule. It spills exactly when the projected packed
// footprint exceeds a positive budget. A spilled pass is one worker: its
// cost is sequential page access (the paper's Section 4.3 argument),
// which concurrent cursors on one store break up — measured at
// 0.34-0.37x of the serial pass at two workers on the quest workload
// under an 8 MiB budget. A resident pass gives each worker at least
// ParallelMinRows rows of R_{k-1}, the relation the executor cuts into
// chunks, up to in.Workers. It never returns an invalid plan (Workers >=
// 1, Spill false when unbounded), whatever the inputs.
func ChoosePlan(in PlanInput) PlanChoice {
	est := EstRPrimeRows(in.PrevRRows, in.AvgBasket)
	if in.K >= 3 && in.PrevRPrime > 0 && est > in.PrevRPrime {
		// Candidate growth is front-loaded: once support pruning bites
		// (k >= 3), the candidate set has never been observed to outgrow
		// the previous iteration's, so the observed |R'_{k-1}| caps the
		// basket-based projection.
		est = in.PrevRPrime
	}
	if in.Budget > 0 && PackedIterFootprint(est, in.CountTableBytes) > in.Budget {
		return PlanChoice{Spill: true, Workers: 1}
	}
	return PlanChoice{Workers: int(max(1, min(int64(in.Workers), in.PrevRRows/ParallelMinRows)))}
}

// String renders the nested-loop report in the paper's terms.
func (r NestedLoopReport) String() string {
	return fmt.Sprintf(
		"(item,tid) index: %d leaf pages, %d levels, %d non-leaf pages\n"+
			"(tid) index: %d leaf pages, %d non-leaf pages\n"+
			"|C1| = %d; per C1 tuple: %d leaf + %d tid fetches\n"+
			"total: %d random fetches = %.0f s (%.1f hours)",
		r.ItemTid.LeafPages, r.ItemTid.Levels, r.ItemTid.NonLeafPages,
		r.Tid.LeafPages, r.Tid.NonLeafPages,
		r.C1Size, r.LeafFetchesPerC1Tuple, r.TidFetchesPerC1Tuple,
		r.TotalFetches, r.Seconds, r.Seconds/3600)
}

// String renders the sort-merge report in the paper's terms.
func (r SortMergeReport) String() string {
	return fmt.Sprintf(
		"‖R‖ pages: %v\nformula bound: %d accesses; headline: %d accesses = %.0f s (%.1f min); speedup vs nested-loop: %.0fx",
		r.RPages, r.FormulaAccesses, r.HeadlineAccesses, r.Seconds, r.Seconds/60, r.SpeedupVsNestedLoop)
}
