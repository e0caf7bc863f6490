package costmodel

import "testing"

// FuzzChoosePlan: arbitrary (including adversarial) cardinalities,
// budgets, and worker counts must never yield an invalid plan or a
// panic. The validity contract is what the executor relies on: at least
// one worker and exactly one when spilling (at a cost independent of the
// workers on offer), spilling only under a positive budget, non-negative
// model quantities, and a finite cost estimate.
func FuzzChoosePlan(f *testing.F) {
	f.Add(2, int64(1000), int64(4000), 5.0, int64(1<<20), 4, int64(0))
	f.Add(1, int64(0), int64(0), 0.0, int64(-1), 0, int64(4096))
	f.Add(64, int64(1)<<62, int64(1)<<62, 1e18, int64(1), 1<<30, int64(1)<<62)
	f.Add(2, int64(500000), int64(0), 10.0, int64(8<<20), 2, int64(4<<20))
	f.Fuzz(func(t *testing.T, k int, prevR, prevRPrime int64, avgBasket float64,
		budget int64, workers int, countTableBytes int64) {
		in := PlanInput{
			K: k, PrevRRows: prevR, PrevRPrime: prevRPrime, AvgBasket: avgBasket,
			Budget: budget, Workers: workers, CountTableBytes: countTableBytes,
		}
		c := ChoosePlan(in)
		if c.Workers < 1 {
			t.Fatalf("Workers = %d, want >= 1", c.Workers)
		}
		if workers >= 1 && c.Workers > workers {
			t.Fatalf("Workers = %d exceeds the %d available", c.Workers, workers)
		}
		if c.Spill && budget <= 0 {
			t.Fatal("spilled under an unbounded budget")
		}
		if c.Spill {
			if c.Workers != 1 {
				t.Fatalf("spilled plan at %d workers, want 1", c.Workers)
			}
			in.Workers = 1
			if c1 := ChoosePlan(in); c1.EstMs != c.EstMs {
				t.Fatalf("spilled EstMs %v at %d available workers, %v at 1", c.EstMs, workers, c1.EstMs)
			}
		}
		if c.EstRPrime < 0 || c.FootprintBytes < 0 {
			t.Fatalf("negative model quantities: rows=%d footprint=%d", c.EstRPrime, c.FootprintBytes)
		}
		if c.EstMs < 0 || c.EstMs != c.EstMs { // negative or NaN
			t.Fatalf("EstMs = %v", c.EstMs)
		}
	})
}
