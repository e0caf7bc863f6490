package core

import (
	"math/rand"
	"testing"
)

// TestMaxWorkersMatchSequentialOnPaperExample: MineAuto at any
// Options.MaxWorkers, GOMAXPROCS's default included, finds MineMemory's
// counts at MineMemory's threshold.
func TestMaxWorkersMatchSequentialOnPaperExample(t *testing.T) {
	want, err := MineMemory(PaperExample(), paperOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		opts := paperOpts
		opts.MaxWorkers = workers
		got, err := MineAuto(PaperExample(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameCounts(t, "auto", want, got)
		if got.MinSupport != want.MinSupport {
			t.Errorf("workers=%d: minsup %d vs %d", workers, got.MinSupport, want.MinSupport)
		}
	}
}

func TestMaxWorkersMatchSequentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, 150, 7, 15)
		opts := Options{MinSupportCount: int64(2 + trial%4)}
		want, err := MineMemory(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.MaxWorkers = 3
		got, err := MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCounts(t, "auto-random", want, got)
		// Per-iteration statistics agree too.
		if len(got.Stats) != len(want.Stats) {
			t.Fatalf("trial %d: stats %d vs %d", trial, len(got.Stats), len(want.Stats))
		}
		for i := range want.Stats {
			if got.Stats[i].RPrimeRows != want.Stats[i].RPrimeRows ||
				got.Stats[i].RRows != want.Stats[i].RRows {
				t.Errorf("trial %d iter %d: rows (%d,%d) vs (%d,%d)", trial, i,
					got.Stats[i].RPrimeRows, got.Stats[i].RRows,
					want.Stats[i].RPrimeRows, want.Stats[i].RRows)
			}
		}
	}
}
