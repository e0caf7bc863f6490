// Package setm is a reproduction of Houtsma & Swami, "Set-Oriented Mining
// for Association Rules in Relational Databases" (ICDE 1995). It provides
// Algorithm SETM — frequent-pattern mining built solely from sorting and
// merge-scan joins — together with the relational substrate the paper
// assumes (paged storage, external sort, B+-trees, a SQL subset engine),
// the baselines it compares against (the rejected nested-loop strategy,
// AIS, Apriori), rule generation, synthetic data generators, and the
// analytical cost models of Sections 3.2 and 4.3.
//
// # Quick start
//
//	d := &setm.Dataset{Transactions: []setm.Transaction{
//	    {ID: 1, Items: []setm.Item{1, 2, 3}},
//	    {ID: 2, Items: []setm.Item{1, 2}},
//	    {ID: 3, Items: []setm.Item{1, 3}},
//	}}
//	res, err := setm.Mine(ctx, d, setm.Options{MinSupportFrac: 0.5})
//	...
//	rules, err := setm.Rules(res, 0.7)
//
// # One executor, one plan rule
//
// Mine runs one executor whose per-iteration strategy IR — memory regime
// (resident or spilled) and parallelism, on the packed-key kernels — is
// chosen at the top of each SETM pass by one rule on the previous
// iteration's observed cardinalities, as the paper's cost argument
// (Sections 3.2/4.3, generalized in internal/costmodel) says it can: the
// spilled regime when the projected footprint crosses the MemoryBudget,
// else one worker per costmodel.ParallelMinRows rows of R_{k-1}, up to
// Options.MaxWorkers. MineAutoResume is the same executor continuing from
// a checkpoint, MineDelta refreshes a mine incrementally from its border
// snapshot, and MineSQL runs the paper's SQL statements serially on the
// bundled relational engine. All compute bit-identical results, and every
// Result records the chosen plan per iteration in Stats[i].Plan.
// Options.DisablePackedKernels runs the serial flat reference (plan
// kernel "generic") instead — an oracle, not a fast path.
package setm

import (
	"context"

	"setm/internal/core"
	"setm/internal/gen"
	"setm/internal/rules"
)

// Item identifies a sellable item.
type Item = core.Item

// Transaction is one customer transaction.
type Transaction = core.Transaction

// Dataset is an ordered collection of transactions.
type Dataset = core.Dataset

// Options configures a mining run (minimum support, pattern-length cap,
// and the executor's MaxWorkers and MemoryBudget).
type Options = core.Options

// Result holds the count relations C_k and per-iteration statistics.
type Result = core.Result

// ItemsetCount is one frequent pattern with its support count.
type ItemsetCount = core.ItemsetCount

// IterationStat records the relation sizes of one SETM iteration.
type IterationStat = core.IterationStat

// IterPlan is the per-iteration strategy IR the executor committed to:
// kernel, memory regime, worker fan-out, and count kernel.
type IterPlan = core.IterPlan

// SQLConfig tunes the SQL driver (statement tracing).
type SQLConfig = core.SQLConfig

// Rule is one association rule X ⇒ I.
type Rule = rules.Rule

// ItemNamer maps item identifiers to display names for rule formatting.
type ItemNamer = rules.ItemNamer

// Mine runs Algorithm SETM under the adaptive executor: each
// iteration's memory regime and parallelism follow a rule on the previous
// iteration's observed cardinalities — spilled when the projected
// footprint crosses Options.MemoryBudget (<= 0: unbounded), else one
// worker per costmodel.ParallelMinRows rows of R_{k-1}, up to
// Options.MaxWorkers (0: GOMAXPROCS; budget-bounded passes are serial).
// Results are bit-identical whatever the plan; the plans run are recorded
// per iteration in Result.Stats[i].Plan. The executor polls ctx at every
// iteration boundary and, in the spilled regime, at block and merge
// granularity; a cancelled mine returns an error wrapping ctx.Err().
//
//	res, _ := setm.Mine(ctx, d, setm.Options{
//	    MinSupportFrac: 0.001,
//	    MemoryBudget:   1 << 20, // stay under ~1 MB, spill past it
//	})
//	for _, st := range res.Stats {
//	    fmt.Printf("k=%d plan=%s\n", st.K, st.Plan)
//	}
func Mine(ctx context.Context, d *Dataset, opts Options) (*Result, error) {
	return core.MineAutoMonitored(ctx, d, opts, nil, nil)
}

// CheckpointConfig makes a mining run durable: with Options.Checkpoint
// set, the executor persists a resumable manifest (C_1..C_k plus the
// live R_k) into Dir at iteration boundaries, atomically — a crash
// mid-write leaves the previous checkpoint intact. Interval zero paces
// the writes by the work they protect (a pass is checkpointed once the
// mining time at risk is ten times the predicted cost of the write, so
// a mine of milliseconds writes none and never creates Dir); Interval
// N >= 1 checkpoints every N-th iteration unconditionally. Checkpoint
// write failures never fail the mine; OnError reports them and the run
// continues with checkpointing disabled.
type CheckpointConfig = core.CheckpointConfig

// Checkpoint is a loaded, integrity-verified mining checkpoint.
type Checkpoint = core.Checkpoint

// ErrCheckpoint tags every checkpoint integrity failure — missing or
// corrupt files, or a manifest that does not match the dataset and
// options being resumed. Match with errors.Is and fall back to a full
// re-mine; it never indicates a problem with the dataset itself.
var ErrCheckpoint = core.ErrCheckpoint

// LoadCheckpoint reads and fully verifies the checkpoint in dir
// (manifest consistency, run-file row count and CRC). A directory
// holding no checkpoint returns (nil, nil); damage returns an error
// wrapping ErrCheckpoint.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	return core.LoadCheckpoint(dir)
}

// MineAutoResume continues a mining run from a checkpoint loaded by
// LoadCheckpoint: the executor rebuilds its deterministic state from
// the dataset, streams R_K back in under the current memory budget,
// and re-enters the loop at iteration K+1. The result is bit-identical
// to an uninterrupted Mine with the same options. cp == nil is Mine
// (checkpointing, if configured): a cancelled job returns promptly with
// its arenas released, partial spill runs recycled, and zero pinned
// buffer frames; the returned error wraps ctx.Err().
func MineAutoResume(ctx context.Context, d *Dataset, opts Options, cp *Checkpoint) (*Result, error) {
	return core.MineAutoResumeMonitored(ctx, d, opts, nil, nil, cp)
}

// BorderSnapshot is the retained state of a completed mining run that
// makes incremental refreshes possible: the item dictionary, every
// frequent set F_k with exact counts, and the negative border (counted
// candidates that fell short of minsup) per iteration, keyed as the
// executor counts them (item codes through k = 2, then the prefix's rank
// in F_{k-1} and the last item's code), so a mine of any depth keeps one.
// Produced by mining with Options.RetainBorder set; consumed by MineDelta.
// A refreshed snapshot is the one a cold mine of base+delta keeps.
type BorderSnapshot = core.BorderSnapshot

// ErrBorder tags every border-snapshot failure — corrupt or truncated
// files, files of an older format version, and snapshots that do not
// match the presented base dataset or options.
var ErrBorder = core.ErrBorder

// SaveBorder atomically persists a border snapshot (CRC-guarded binary,
// same durability discipline as checkpoints: temp file, fsync, rename).
func SaveBorder(path string, b *BorderSnapshot) error {
	return core.SaveBorder(path, b, false)
}

// LoadBorder reads and fully verifies a snapshot written by SaveBorder.
// Failures wrap ErrBorder.
func LoadBorder(path string) (*BorderSnapshot, error) {
	return core.LoadBorder(path)
}

// MineDelta mines base+delta incrementally from a border snapshot of
// the base run: the executor mines the appended transactions alone, under
// the snapshot's dictionary grown by their unseen items, and adds the
// snapshot's counts of F_k and the negative border into each pass, so the
// refresh costs O(|delta|) instead of O(full re-mine) as long as no
// border pattern is promoted to frequent. When one is (its unseen
// extensions were never counted), MineDelta falls back to a cold Mine of
// base+delta. Either way the Result is bit-identical to Mine(ctx,
// base+delta, opts). Delta transaction ids must all exceed
// snapshot.MaxTid.
func MineDelta(ctx context.Context, base, delta *Dataset, snapshot *BorderSnapshot, opts Options) (*Result, error) {
	return core.MineDelta(ctx, base, delta, snapshot, opts)
}

// CanonicalOptions reduces opts, for a dataset of n transactions, to
// the fields that determine the mining result — the resolved absolute
// support threshold and the pattern-length cap — zeroing every
// execution knob (budget, workers, kernels, checkpointing). All drivers are
// conformance-pinned to bit-identical counts regardless of plan, so two
// option sets with equal canonical forms yield the same Result.Counts;
// services use the canonical form as a result-cache key.
func CanonicalOptions(opts Options, n int) Options {
	return core.CanonicalOptions(opts, n)
}

// MineSQL runs Algorithm SETM by executing the paper's SQL formulation on
// the bundled relational engine, one statement after another on one
// goroutine: Options.MaxWorkers is ignored.
func MineSQL(d *Dataset, opts Options, cfg SQLConfig) (*Result, error) {
	return core.MineSQL(d, opts, cfg)
}

// Rules generates association rules from a mining result at the given
// minimum confidence factor (Section 5 of the paper).
func Rules(res *Result, minConfidence float64) ([]Rule, error) {
	return rules.Generate(res, rules.Options{MinConfidence: minConfidence})
}

// RulesSQL derives the same rules as Rules but expresses the Section 5
// derivation itself as SQL joins between the C_k count tables, with the
// confidence test in integer arithmetic — completing the paper's
// set-oriented programme end to end.
func RulesSQL(res *Result, minConfidence float64) ([]Rule, error) {
	return rules.GenerateSQL(res, minConfidence)
}

// ClassifiedTransaction is a customer transaction tagged with a customer
// class, for the paper's Section 7 extension.
type ClassifiedTransaction = core.ClassifiedTransaction

// ClassifiedDataset is a collection of classified transactions.
type ClassifiedDataset = core.ClassifiedDataset

// ClassResult is the outcome of per-class mining.
type ClassResult = core.ClassResult

// MineClasses implements the extension the paper's conclusion sketches
// ("relating association rules to customer classes"): the transactions
// are grouped by class in one pass and each class is then an ordinary
// mine on the shared executor at that class's own threshold, the count
// relations tagged C_k(class, items, count) in (class, items) order. Use
// ClassResult.ByClass with Rules to obtain per-class rules.
func MineClasses(d *ClassifiedDataset, minSupportFrac float64) (*ClassResult, error) {
	return core.MineClasses(d, minSupportFrac)
}

// FormatRules renders rules in the paper's notation, one per line.
// namer may be nil (numeric item names) or LetterNamer for the paper's
// A/B/C style.
func FormatRules(rs []Rule, namer ItemNamer) string {
	return rules.FormatAll(rs, namer)
}

// LetterNamer names items 1..26 as A..Z, as in the paper's example.
func LetterNamer(it Item) string { return rules.LetterNamer(it) }

// NewRetailDataset generates the calibrated stand-in for the paper's
// Section 6 retail data set (46,873 transactions, 59 items, |R_1| ≈
// 115,568, longest frequent pattern 3).
func NewRetailDataset(seed int64) *Dataset {
	return gen.Retail(gen.DefaultRetail(seed))
}

// NewUniformDataset generates the Section 3.2 hypothetical data set scaled
// by the given factor (1.0 = 200,000 transactions of 10 items over a
// 1,000-item catalogue).
func NewUniformDataset(scale float64, seed int64) *Dataset {
	cfg := gen.PaperUniform(seed)
	cfg.NumTransactions = int(float64(cfg.NumTransactions) * scale)
	if cfg.NumTransactions < 1 {
		cfg.NumTransactions = 1
	}
	return gen.Uniform(cfg)
}

// NewQuestDataset generates an Agrawal–Srikant style T10.I4 synthetic data
// set scaled by the given factor (1.0 = 100,000 transactions).
func NewQuestDataset(scale float64, seed int64) *Dataset {
	return gen.Quest(gen.T10I4D100K(scale, seed))
}

// PaperExample returns the 10-transaction worked example of Figures 1–3
// (items A..H as 1..8). Mining it at MinSupportFrac 0.30 and generating
// rules at confidence 0.70 reproduces the paper's Section 5 output.
func PaperExample() *Dataset {
	const (
		A, B, C, D, E, F, G, H = 1, 2, 3, 4, 5, 6, 7, 8
	)
	return &Dataset{Transactions: []Transaction{
		{ID: 10, Items: []Item{A, B, C}},
		{ID: 20, Items: []Item{A, B, D}},
		{ID: 30, Items: []Item{A, B, C}},
		{ID: 40, Items: []Item{B, C, D}},
		{ID: 50, Items: []Item{A, C, G}},
		{ID: 60, Items: []Item{A, D, G}},
		{ID: 70, Items: []Item{A, E, H}},
		{ID: 80, Items: []Item{D, E, F}},
		{ID: 90, Items: []Item{D, E, F}},
		{ID: 99, Items: []Item{D, E, F}},
	}}
}
