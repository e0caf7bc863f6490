package core

// MineMemory runs Algorithm SETM (Figure 4 of the paper) entirely in main
// memory: MineAuto at one worker with no budget, which plans
// {packed, resident, 1 worker} on every pass — the packed-key kernels of
// pack.go on the serial path with no budget machinery.
// Options.DisablePackedKernels selects the generic flat-relation kernels
// instead — the conformance oracle.
func MineMemory(d *Dataset, opts Options) (*Result, error) {
	opts.MaxWorkers, opts.MemoryBudget = 1, 0
	return MineAuto(d, opts)
}

// flatStepper is the generic in-memory substrate of the SETM pipeline:
// R_k lives in flat stride-(k+1) relations and the kernels of
// relation.go (sort, merge-scan extension, count scan, binary-search
// filter) implement the steps, serially. It is the one reference the
// packed engine is conformance-tested against — what every native driver
// runs under DisablePackedKernels.
type flatStepper struct {
	d *Dataset

	rk       relation // R_{k-1}, sorted by (trans_id, items)
	joinSide relation // R_1 side of the merge-scan join
}

func (s *flatStepper) init(minSup int64) ([]ItemsetCount, IterationStat, error) {
	// R_1 = SALES in (trans_id, item) form, sorted by (trans_id, item).
	sales := salesRelation(s.d)

	// C_1: counts per item require R_1 sorted on item.
	c1, skips := countPatterns(sales, minSup)

	// The paper does not filter R_1 by C_1: "the starting relations are the
	// same and hence |R_1| = 115,568 in all cases" (Section 6.1).
	s.rk, s.joinSide = sales, sales
	return c1, s.stat(sales, skips), nil
}

// stat is the pass's IterationStat (R_k is s.rk by now), under the fixed
// strategy IR the generic in-memory substrate runs under, recorded per
// iteration like the executor's.
func (s *flatStepper) stat(rPrime relation, skips int64) IterationStat {
	return IterationStat{
		RPrimeRows: int64(rPrime.rows()), RRows: int64(s.rk.rows()), SortsSkipped: skips,
		Plan: IterPlan{Kernel: KernelGeneric, Regime: RegimeResident, Workers: 1},
	}
}

func (s *flatStepper) step(k int, minSup int64) ([]ItemsetCount, IterationStat, error) {
	// sort R_{k-1} on (trans_id, item_1..item_{k-1}). Rows are built in
	// that order already, so the sortedness pre-scan usually skips this —
	// the paper-faithful call site stays, the cost disappears.
	var skips int64
	if sortRelation(s.rk, 0) {
		skips++
	}

	// R'_k := merge-scan(R_{k-1}, R_1), then sort on items and count.
	rPrime := extendRelation(s.rk, s.joinSide)
	ck, cs := countPatterns(rPrime, minSup)
	skips += cs

	// R_k := filter R'_k to supported patterns.
	var fs int64
	s.rk, fs = filterRelation(rPrime, ck)
	skips += fs
	return ck, s.stat(rPrime, skips), nil
}

// countPatterns produces C_k from an unsorted candidate relation: sort a
// copy on the item columns, then count runs. The second return is the
// number of sorts the pre-scan skipped.
func countPatterns(rPrime relation, minSup int64) ([]ItemsetCount, int64) {
	if rPrime.rows() == 0 {
		return nil, 0
	}
	byItems := rPrime.clone()
	var skips int64
	if sortRelation(byItems, 1) {
		skips++
	}
	return countItemRuns(byItems, minSup), skips
}
