package core

import (
	"runtime"

	"setm/internal/costmodel"
)

// MineParallel runs Algorithm SETM with the per-iteration work fanned out
// across CPU cores. The set-oriented formulation makes this mechanical —
// exactly the "easy extensibility" the paper attributes to it:
//
//   - the merge-scan extension is independent per transaction, so R_{k-1}
//     and R_1 are split at transaction boundaries and joined in parallel;
//   - support counting counts row chunks concurrently and merges the
//     per-chunk counts;
//   - the support filter is again independent per row.
//
// It is the same pipeline and the same packed-key substrate as MineMemory
// — the executor held to the fixed plan {packed, resident, N workers} — so
// results are bit-identical (tests enforce it). The fan-out exists on the
// packed kernels only: under DisablePackedKernels this is the serial flat
// reference, whatever workers says. workers <= 0 selects GOMAXPROCS.
func MineParallel(d *Dataset, opts Options, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runPipeline(d, opts, newMemoryStepper(d, opts, workers))
}

// parallelMinRows is the relation size below which the parallel kernels
// fall back to the serial path — goroutine fan-out costs more than it
// saves on tiny inputs. It is the cost model's threshold, shared so the
// planner and the kernels agree.
const parallelMinRows = costmodel.ParallelMinRows

// evenChunks splits n rows into at most w row ranges of near-equal size.
func evenChunks(n, w int) [][2]int {
	if n == 0 || w < 1 {
		return nil
	}
	if w > n {
		w = 1
	}
	size := (n + w - 1) / w
	var bounds [][2]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		bounds = append(bounds, [2]int{start, end})
	}
	return bounds
}
