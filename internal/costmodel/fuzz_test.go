package costmodel

import "testing"

// FuzzChoosePlan: arbitrary (including adversarial) cardinalities,
// budgets, and worker counts must never yield an invalid plan or a
// panic. The contract is what the executor relies on, and the rule's
// shape: at least one worker, never more than are available, exactly one
// when spilling; spilling only under a positive budget and never because
// of the workers on offer; and no fewer workers for a larger R_{k-1},
// the other inputs fixed.
func FuzzChoosePlan(f *testing.F) {
	f.Add(2, int64(1000), int64(4000), 5.0, int64(1<<20), 4, int64(0), int64(3000))
	f.Add(1, int64(0), int64(0), 0.0, int64(-1), 0, int64(4096), int64(0))
	f.Add(64, int64(1)<<62, int64(1)<<62, 1e18, int64(1), 1<<30, int64(1)<<62, int64(1))
	f.Add(2, int64(500000), int64(0), 10.0, int64(8<<20), 2, int64(4<<20), int64(4096))
	f.Fuzz(func(t *testing.T, k int, prevR, prevRPrime int64, avgBasket float64,
		budget int64, workers int, countTableBytes, moreR int64) {
		in := PlanInput{
			K: k, PrevRRows: prevR, PrevRPrime: prevRPrime, AvgBasket: avgBasket,
			Budget: budget, Workers: workers, CountTableBytes: countTableBytes,
		}
		c := ChoosePlan(in)
		if c.Workers < 1 || c.Workers > max(1, workers) {
			t.Fatalf("Workers = %d with %d available", c.Workers, workers)
		}
		if c.Spill && budget <= 0 {
			t.Fatal("spilled under an unbounded budget")
		}
		if c.Spill && c.Workers != 1 {
			t.Fatalf("spilled plan at %d workers, want 1", c.Workers)
		}
		for _, w := range []int{1, 2, workers / 2, workers + 1} {
			in.Workers = w
			if cw := ChoosePlan(in); cw.Spill != c.Spill {
				t.Fatalf("Spill = %v at %d available workers, %v at %d", c.Spill, workers, cw.Spill, w)
			}
		}
		// Monotone in |R_{k-1}|: a larger relation on the same budget may
		// spill, but a resident pass over it never fans out less.
		in.Workers = workers
		if bigger := prevR + max(0, moreR); bigger >= prevR && !c.Spill {
			in.PrevRRows = bigger
			if cb := ChoosePlan(in); !cb.Spill && cb.Workers < c.Workers {
				t.Fatalf("Workers = %d at |R_{k-1}| = %d, %d at %d", cb.Workers, bigger, c.Workers, prevR)
			}
		}
	})
}
