package costmodel

import (
	"testing"
)

// TestChoosePlanSpillFlip pins the resident→spilled transition to the
// exact point where the modeled packed footprint crosses the budget.
func TestChoosePlanSpillFlip(t *testing.T) {
	in := PlanInput{K: 2, PrevRRows: 10_000, AvgBasket: 6, Workers: 1}
	foot := PackedIterFootprint(EstRPrimeRows(in.PrevRRows, in.AvgBasket), 0)
	if foot <= 0 {
		t.Fatalf("footprint = %d, want > 0", foot)
	}

	in.Budget = foot // exactly at the budget: still resident
	if c := ChoosePlan(in); c.Spill {
		t.Errorf("budget == footprint (%d): plan spilled, want resident", foot)
	}
	in.Budget = foot - 1 // one byte under: must spill
	if c := ChoosePlan(in); !c.Spill {
		t.Errorf("budget = footprint-1 (%d): plan resident, want spilled", foot-1)
	}
	in.Budget = 0 // unbounded: never spills
	if c := ChoosePlan(in); c.Spill {
		t.Error("unbounded budget spilled")
	}
	in.Budget = -1
	if c := ChoosePlan(in); c.Spill {
		t.Error("negative (explicitly unbounded) budget spilled")
	}
}

// TestChoosePlanFootprintModel pins the footprint arithmetic the flip
// test relies on: R'_k rows + key column + filtered R_k, all packed.
func TestChoosePlanFootprintModel(t *testing.T) {
	if got, want := PackedIterFootprint(1000, 0), int64(1000*(16+8+16)); got != want {
		t.Errorf("PackedIterFootprint(1000, 0) = %d, want %d", got, want)
	}
	if got := PackedIterFootprint(0, 0); got != 0 {
		t.Errorf("PackedIterFootprint(0, 0) = %d, want 0", got)
	}
	// A count table that fits the rule replaces the 8 B/row key column; one
	// byte past the sort buffers it would replace, the sort charge returns.
	if got, want := PackedIterFootprint(1000, 16000), int64(1000*(16+16)+16000); got != want {
		t.Errorf("PackedIterFootprint(1000, 16000) = %d, want %d", got, want)
	}
	if got, want := PackedIterFootprint(1000, 16001), int64(1000*(16+8+16)); got != want {
		t.Errorf("PackedIterFootprint(1000, 16001) = %d, want %d", got, want)
	}
	// The projection: each surviving pattern extends by half the mean
	// basket, never shrinking below one extension per row.
	if got, want := EstRPrimeRows(100, 8), int64(400); got != want {
		t.Errorf("EstRPrimeRows(100, 8) = %d, want %d", got, want)
	}
	if got, want := EstRPrimeRows(100, 1), int64(100); got != want {
		t.Errorf("EstRPrimeRows(100, 1) = %d, want %d", got, want)
	}
}

// TestChoosePlanCountTable: a pass whose key space admits a counting
// table is charged the table instead of the key column and its radix
// sort — cheaper and smaller exactly when CountTableFits holds, so the
// spill decision follows the program that runs.
func TestChoosePlanCountTable(t *testing.T) {
	in := PlanInput{K: 2, PrevRRows: 100_000, AvgBasket: 10, Workers: 1}
	sorted := ChoosePlan(in)
	in.CountTableBytes = 1 << 20
	tabled := ChoosePlan(in)
	if !CountTableFits(in.CountTableBytes, tabled.EstRPrime) {
		t.Fatalf("setup: a 1 MiB table should fit %d keys", tabled.EstRPrime)
	}
	if want := sorted.FootprintBytes - PackedKeyBytes*tabled.EstRPrime + in.CountTableBytes; tabled.FootprintBytes != want {
		t.Errorf("table footprint = %d, want %d", tabled.FootprintBytes, want)
	}
	if tabled.EstMs >= sorted.EstMs {
		t.Errorf("table pass modeled at %.3f ms, sort pass at %.3f ms: the sort term was not dropped", tabled.EstMs, sorted.EstMs)
	}
	// Between the two footprints the budget flips the regime by kernel.
	in.Budget = tabled.FootprintBytes
	if c := ChoosePlan(in); c.Spill {
		t.Error("budget == table footprint: spilled, want resident")
	}
	in.CountTableBytes = 0
	if c := ChoosePlan(in); !c.Spill {
		t.Error("same budget on the sort kernel: resident, want spilled")
	}
	// A table larger than the sort buffers is ignored entirely.
	in.Budget = 0
	in.CountTableBytes = 16*sorted.EstRPrime + 1
	if c := ChoosePlan(in); c != sorted {
		t.Errorf("oversized table changed the plan: %+v vs %+v", c, sorted)
	}
	if CountTableFits(0, 1<<40) || CountTableFits(-4, 1<<40) || CountTableFits(16, 0) {
		t.Error("CountTableFits accepted an absent table or an empty input")
	}
}

// TestChoosePlanWorkers: large relations fan out across the available
// CPUs, small ones stay serial, mid-size ones on many-core machines get
// the cost-minimizing intermediate fan-out (not all-or-nothing), and a
// spilled pass is one worker at a cost the available workers cannot move.
func TestChoosePlanWorkers(t *testing.T) {
	big := PlanInput{K: 2, PrevRRows: 500_000, AvgBasket: 10, Workers: 8}
	if c := ChoosePlan(big); c.Workers != 8 {
		t.Errorf("big resident iteration: workers = %d, want 8", c.Workers)
	}
	small := big
	small.PrevRRows = 10
	if c := ChoosePlan(small); c.Workers != 1 {
		t.Errorf("tiny iteration: workers = %d, want 1", c.Workers)
	}
	// Mid-size work on a 64-way box: full fan-out costs more in dispatch
	// than it saves, but an intermediate fan-out still beats serial.
	mid := PlanInput{K: 2, PrevRRows: 1500, AvgBasket: 4, Workers: 64}
	cm := ChoosePlan(mid)
	if cm.EstRPrime < ParallelMinRows {
		t.Fatalf("mid estimate %d below the parallel threshold; adjust the fixture", cm.EstRPrime)
	}
	if cm.Workers <= 1 || cm.Workers >= 64 {
		t.Errorf("mid-size on 64 CPUs: workers = %d, want an intermediate fan-out", cm.Workers)
	}
	serial := ChoosePlan(PlanInput{K: 2, PrevRRows: 1500, AvgBasket: 4, Workers: 1})
	if cm.EstMs >= serial.EstMs {
		t.Errorf("chosen fan-out models %.3f ms, serial %.3f ms", cm.EstMs, serial.EstMs)
	}
	spilled := big
	spilled.Budget = 1 << 10
	c := ChoosePlan(spilled)
	if !c.Spill {
		t.Fatal("1 KB budget did not spill")
	}
	if c.Workers != 1 {
		t.Errorf("spilled workers = %d, want 1", c.Workers)
	}
	spilled.Workers = 1
	if c1 := ChoosePlan(spilled); c1.EstMs != c.EstMs {
		t.Errorf("spilled EstMs depends on the available workers: %.3f at 8, %.3f at 1", c.EstMs, c1.EstMs)
	}
}

// TestChoosePlanObservedCandidateCap: from k >= 3 the observed
// |R'_{k-1}| caps the basket-based projection — candidate growth is
// front-loaded, so a shrinking run must not keep planning for the
// worst case.
func TestChoosePlanObservedCandidateCap(t *testing.T) {
	in := PlanInput{K: 3, PrevRRows: 10_000, PrevRPrime: 12_000, AvgBasket: 10, Workers: 1}
	c := ChoosePlan(in)
	if c.EstRPrime != 12_000 { // basket model would say 50,000
		t.Errorf("k=3 estimate = %d, want the observed cap 12000", c.EstRPrime)
	}
	in.K = 2 // the first extension may legitimately grow past |R'_1|
	if c := ChoosePlan(in); c.EstRPrime != 50_000 {
		t.Errorf("k=2 estimate = %d, want the uncapped 50000", c.EstRPrime)
	}
}

// TestParallelMsMonotonic: more workers never make the modeled cost
// negative, and the overhead term makes tiny work prefer serial.
func TestParallelMsMonotonic(t *testing.T) {
	if got := ParallelMs(100, 1); got != 100 {
		t.Errorf("ParallelMs(100, 1) = %v, want 100", got)
	}
	if got := ParallelMs(100, 4); got <= 0 || got >= 100 {
		t.Errorf("ParallelMs(100, 4) = %v, want in (0, 100)", got)
	}
	if got := ParallelMs(0.001, 8); got <= 0.001 {
		t.Errorf("ParallelMs(0.001, 8) = %v: fan-out overhead should dominate tiny work", got)
	}
}

func TestRadixSortMs(t *testing.T) {
	if got := RadixSortMs(0, 2); got != 0 {
		t.Errorf("RadixSortMs(0) = %v", got)
	}
	if RadixSortMs(1000, 4) <= RadixSortMs(1000, 2) {
		t.Error("more radix passes must cost more")
	}
	if RadixSortMs(1000, 0) != RadixSortMs(1000, 2) {
		t.Error("pass count <= 0 must default to the narrow-domain count")
	}
}

// TestMineFootprint pins the admission estimate's contracts: monotone in
// dataset size, capped by a positive per-job budget, floored at one
// page, and saturating rather than overflowing on adversarial inputs.
func TestMineFootprint(t *testing.T) {
	small := MineFootprint(1000, 5, 0)
	big := MineFootprint(100000, 5, 0)
	if small <= 0 || big <= small {
		t.Fatalf("footprint not monotone: small=%d big=%d", small, big)
	}
	if want := int64(1000 * PackedRowBytes); small <= want {
		t.Fatalf("unbounded footprint %d does not exceed R_1 bytes %d", small, want)
	}

	// A positive budget caps the iteration term: the bounded estimate
	// must not exceed R_1 + budget, and a tiny budget must bite.
	const budget = 64 << 10
	bounded := MineFootprint(100000, 5, budget)
	if maxWant := int64(100000*PackedRowBytes) + budget; bounded > maxWant {
		t.Fatalf("bounded footprint %d exceeds R_1 + budget %d", bounded, maxWant)
	}
	if bounded >= big {
		t.Fatalf("budget did not reduce footprint: bounded=%d unbounded=%d", bounded, big)
	}
	// Below a page per buffer the spilled regime cannot shrink further:
	// the charge stops at the floor, not at the budget.
	if got, want := MineFootprint(100000, 5, 1), int64(100000*PackedRowBytes)+spilledIterFloor; got != want {
		t.Fatalf("one-byte budget footprint %d, want R_1 + buffer floor %d", got, want)
	}

	// Degenerate and adversarial inputs: positive floor, no overflow.
	if got := MineFootprint(0, 0, 0); got <= 0 {
		t.Fatalf("empty dataset footprint = %d, want positive floor", got)
	}
	if got := MineFootprint(int64(1)<<62, 1e18, 0); got <= 0 {
		t.Fatalf("adversarial footprint overflowed: %d", got)
	}
}

// TestDeltaFootprint pins the incremental-refresh admission charge:
// monotone in delta size and snapshot cardinality, budget-capped like
// MineFootprint, floored at one page, saturating on adversarial inputs
// — and, for small deltas, far below the cold-mine charge it replaces.
func TestDeltaFootprint(t *testing.T) {
	small := DeltaFootprint(100, 5, 5000, 0)
	bigDelta := DeltaFootprint(100000, 5, 5000, 0)
	bigBorder := DeltaFootprint(100, 5, 5000000, 0)
	if small <= 0 || bigDelta <= small || bigBorder <= small {
		t.Fatalf("not monotone: small=%d bigDelta=%d bigBorder=%d", small, bigDelta, bigBorder)
	}
	// The merge term is exactly two counted-entry arrays.
	if want := int64(5000 * 2 * (PackedKeyBytes + PackedCountBytes)); small <= want {
		t.Fatalf("footprint %d does not exceed merge term %d", small, want)
	}

	const budget = 64 << 10
	bounded := DeltaFootprint(100000, 5, 5000, budget)
	if maxWant := int64(100000*PackedRowBytes) + budget + int64(5000*2*(PackedKeyBytes+PackedCountBytes)); bounded > maxWant {
		t.Fatalf("bounded footprint %d exceeds rows + budget + merge %d", bounded, maxWant)
	}
	if bounded >= bigDelta {
		t.Fatalf("budget did not bite: bounded=%d unbounded=%d", bounded, bigDelta)
	}

	// The point of the whole exercise: a 1% delta admits far cheaper
	// than a cold re-mine of the combined dataset.
	cold := MineFootprint(101000, 5, 0)
	incr := DeltaFootprint(1000, 5, 20000, 0)
	if incr*5 > cold {
		t.Fatalf("delta admission %d not ≥5x below cold %d", incr, cold)
	}

	if got := DeltaFootprint(0, 0, 0, 0); got <= 0 {
		t.Fatalf("empty delta footprint = %d, want positive floor", got)
	}
	if got := DeltaFootprint(int64(1)<<62, 1e18, int64(1)<<62, 0); got <= 0 {
		t.Fatalf("adversarial footprint overflowed: %d", got)
	}
	if got := DeltaFootprint(-5, 2, -7, 0); got <= 0 {
		t.Fatalf("negative inputs not clamped: %d", got)
	}
}
