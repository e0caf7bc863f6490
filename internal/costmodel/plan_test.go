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
// table is charged the table instead of the key column, so the spill
// decision follows the program that runs — between the two footprints
// the budget flips the regime by kernel, and a table larger than the
// sort buffers it would replace changes nothing.
func TestChoosePlanCountTable(t *testing.T) {
	in := PlanInput{K: 2, PrevRRows: 100_000, AvgBasket: 10, Workers: 1}
	est := EstRPrimeRows(in.PrevRRows, in.AvgBasket)
	const table = 1 << 20
	if !CountTableFits(table, est) {
		t.Fatalf("setup: a 1 MiB table should fit %d keys", est)
	}
	sorted, tabled := PackedIterFootprint(est, 0), PackedIterFootprint(est, table)
	if want := sorted - PackedKeyBytes*est + table; tabled != want {
		t.Fatalf("table footprint = %d, want %d", tabled, want)
	}
	for _, tc := range []struct {
		table, budget int64
		spill         bool
	}{
		{table, tabled, false},         // the table pass fits exactly
		{table, tabled - 1, true},      // one byte short
		{0, tabled, true},              // the same budget on the sort kernel
		{0, sorted, false},             // the sort pass fits exactly
		{16*est + 1, sorted - 1, true}, // an oversized table is the sort kernel
		{16*est + 1, sorted, false},
	} {
		in.CountTableBytes, in.Budget = tc.table, tc.budget
		if c := ChoosePlan(in); c.Spill != tc.spill {
			t.Errorf("table %d B, budget %d B: spill = %v, want %v", tc.table, tc.budget, c.Spill, tc.spill)
		}
	}
	if CountTableFits(0, 1<<40) || CountTableFits(-4, 1<<40) || CountTableFits(16, 0) {
		t.Error("CountTableFits accepted an absent table or an empty input")
	}
}

// TestChoosePlanWorkers pins the fan-out rule: a resident pass gives each
// worker at least ParallelMinRows rows of R_{k-1}, up to the available
// CPUs; a spilled pass is one worker whatever is available.
func TestChoosePlanWorkers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		prevRRows int64
		workers   int
		want      int
	}{
		{"big", 500_000, 8, 8},
		{"big-one-cpu", 500_000, 1, 1},
		{"tiny", 10, 8, 1},
		{"empty", 0, 8, 1},
		{"just-under-two-workers", 2*ParallelMinRows - 1, 8, 1},
		{"two-workers", 2 * ParallelMinRows, 8, 2},
		{"mid-size-on-64-cpus", 20 * ParallelMinRows, 64, 20},
		{"mid-size-past-a-multiple", 20*ParallelMinRows + ParallelMinRows - 1, 64, 20},
		{"no-cpus-reported", 500_000, 0, 1},
	} {
		in := PlanInput{K: 2, PrevRRows: tc.prevRRows, AvgBasket: 10, Workers: tc.workers}
		if c := ChoosePlan(in); c.Spill || c.Workers != tc.want {
			t.Errorf("%s: %+v, want resident at %d workers", tc.name, c, tc.want)
		}
	}
	spilled := PlanInput{K: 2, PrevRRows: 500_000, AvgBasket: 10, Workers: 8, Budget: 1 << 10}
	if c := ChoosePlan(spilled); !c.Spill || c.Workers != 1 {
		t.Errorf("1 KB budget: %+v, want spilled at 1 worker", c)
	}
}

// TestChoosePlanObservedCandidateCap: from k >= 3 the observed
// |R'_{k-1}| caps the basket-based projection — candidate growth is
// front-loaded, so a shrinking run must not keep planning for the
// worst case. The spill flips at the capped footprint from k = 3 and at
// the uncapped one at k = 2.
func TestChoosePlanObservedCandidateCap(t *testing.T) {
	in := PlanInput{K: 3, PrevRRows: 10_000, PrevRPrime: 12_000, AvgBasket: 10, Workers: 1}
	if est := EstRPrimeRows(in.PrevRRows, in.AvgBasket); est != 50_000 {
		t.Fatalf("setup: basket projection = %d, want 50000", est)
	}
	capped, uncapped := PackedIterFootprint(12_000, 0), PackedIterFootprint(50_000, 0)
	for _, tc := range []struct {
		k      int
		budget int64
		spill  bool
	}{
		{3, capped, false},
		{3, capped - 1, true},
		{2, capped, true}, // the first extension may legitimately grow past |R'_1|
		{2, uncapped, false},
		{2, uncapped - 1, true},
	} {
		in.K, in.Budget = tc.k, tc.budget
		if c := ChoosePlan(in); c.Spill != tc.spill {
			t.Errorf("k=%d, budget %d B: spill = %v, want %v", tc.k, tc.budget, c.Spill, tc.spill)
		}
	}
	// A zero observation (resumed or unknown) leaves the projection alone.
	in.K, in.PrevRPrime, in.Budget = 3, 0, capped
	if c := ChoosePlan(in); !c.Spill {
		t.Error("k=3 with no observed |R'_2|: capped anyway")
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
