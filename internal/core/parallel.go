package core

import (
	"runtime"
	"sync"

	"setm/internal/costmodel"
)

// MineParallel runs Algorithm SETM with the per-iteration work fanned out
// across CPU cores. The set-oriented formulation makes this mechanical —
// exactly the "easy extensibility" the paper attributes to it: a pass is
// independent per transaction, so R_{k-1} is cut into one contiguous chunk
// per worker and each worker runs the whole pass on its own chunk —
// extends it against the window of R_1 covering its transactions, counts
// it, and (once the per-chunk counts are merged into C_k) filters it. A
// chunk of R'_k stays in its worker's buffer from the extension to the
// filter; only R_k's survivors are gathered into one relation.
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

// parallelMinRows is the relation size below which a pass stays serial —
// goroutine fan-out costs more than it saves on tiny inputs. It is the
// cost model's threshold, shared so the planner and the kernels agree.
const parallelMinRows = costmodel.ParallelMinRows

// chunkRows cuts rows into the chunks a resident pass fans out over: one
// — the serial pass — when workers is 1 or rows are fewer than
// parallelMinRows, otherwise at most workers contiguous ranges of
// near-equal length. A cut may fall inside a transaction: the pass is
// independent per row of R_{k-1} given that transaction's rows of R_1, and
// each side of the cut joins the same window of R_1.
func chunkRows(rows []prow, workers int) [][]prow {
	if workers <= 1 || len(rows) < parallelMinRows {
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
