package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// sortRunBytes makes the external sort cut a run every 64 two-INT rows, so
// many runs stay a small input.
const sortRunBytes = 1024

// sortInput builds, in pool, a heap file of (key, seq) rows that the
// external sort splits into the given number of runs (0 = an empty file).
// Keys repeat, so only a stable sort reproduces the in-memory order.
func sortInput(t testing.TB, pool *storage.Pool, runs int) *hp.File {
	t.Helper()
	n := 0
	if runs > 0 {
		n = (runs-1)*(sortRunBytes/16) + 30
	}
	rng := rand.New(rand.NewSource(int64(runs)))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(40), int64(i)}
	}
	return heapFile(t, pool, tuple.IntSchema("k", "seq"), rows)
}

// freeListLen counts the pool's free page ids the only way a caller can:
// allocations are served from the free list until the store has to grow.
// It uses the free list up, so it is the last thing a test asks.
func freeListLen(t testing.TB, pool *storage.Pool) int {
	t.Helper()
	pages := pool.Store().NumPages()
	page := make([]byte, storage.PageSize)
	for n := 0; ; n++ {
		if _, err := pool.AppendPages(nil, page); err != nil {
			t.Fatal(err)
		}
		if pool.Store().NumPages() > pages {
			return n
		}
	}
}

// TestExternalSortReleasesPages pins the external sort's page discipline:
// it merges any number of runs through a pool of any size, re-executing
// it does not grow the store, it leaves no frame pinned, and a
// failed allocation at any point leaves nothing behind but the input.
func TestExternalSortReleasesPages(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) storage.Store
	}{
		{"mem", func(*testing.T) storage.Store { return storage.NewMemStore() }},
		{"file", func(t *testing.T) storage.Store {
			fs, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "pages"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}},
	}
	for _, st := range stores {
		for _, frames := range []int{16, 64} {
			for _, runs := range []int{0, 1, 2, 20, 70} {
				for _, desc := range []bool{false, true} {
					name := fmt.Sprintf("%s/%dframes/%druns/desc=%v", st.name, frames, runs, desc)
					t.Run(name, func(t *testing.T) {
						store := st.open(t)
						pool := storage.NewPool(store, frames)
						in := sortInput(t, pool, runs)
						keys := []SortKey{{Col: 0, Desc: desc}}
						want := drainRows(t, NewSortKeys(NewHeapScan(in), keys, nil, 0))

						op := NewSortKeys(NewHeapScan(in), keys, pool, sortRunBytes)
						pages := 0
						for run := 1; run <= 5; run++ {
							requireSameRows(t, fmt.Sprintf("execution %d", run), drainRows(t, op), want)
							if n := pool.PinnedFrames(); n != 0 {
								t.Fatalf("execution %d left %d frames pinned", run, n)
							}
							if run == 1 {
								pages = store.NumPages()
							} else if got := store.NumPages(); got != pages {
								t.Fatalf("store has %d pages after execution %d, %d after the first", got, run, pages)
							}
						}
						if free := freeListLen(t, pool); free != pages-in.Pages() {
							t.Errorf("%d pages on the free list, want all %d that are not the input's", free, pages-in.Pages())
						}
					})
				}
			}
		}
	}

	// Refuse the N-th page allocation of the sort, for every N it makes.
	for _, runs := range []int{1, 20} {
		failures := 0
		for n := 0; ; n++ {
			fs := storage.NewFaultStore(storage.NewMemStore())
			pool := storage.NewPool(fs, 16)
			in := sortInput(t, pool, runs)
			fs.FailAllocAfter = fs.NumPages() + n
			got, err := Drain(NewSortKeys(NewHeapScan(in), []SortKey{{Col: 0}}, pool, sortRunBytes))
			if err == nil {
				if int64(len(got)) != in.Rows() {
					t.Fatalf("%d runs, %d allocations allowed: %d rows, want %d", runs, n, len(got), in.Rows())
				}
				break
			}
			failures++
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%d runs, allocation %d refused: %v", runs, n+1, err)
			}
			if p := pool.PinnedFrames(); p != 0 {
				t.Fatalf("%d runs, allocation %d refused: %d frames pinned", runs, n+1, p)
			}
			fs.FailAllocAfter = -1
			notInput := fs.NumPages() - in.Pages()
			if free := freeListLen(t, pool); free != notInput {
				t.Fatalf("%d runs, allocation %d refused: %d pages on the free list, %d pages are not the input's",
					runs, n+1, free, notInput)
			}
			if rows := drainRows(t, NewHeapScan(in)); int64(len(rows)) != in.Rows() {
				t.Fatalf("%d runs, allocation %d refused: input reads %d rows, want %d", runs, n+1, len(rows), in.Rows())
			}
		}
		t.Logf("%d runs: %d allocations refused in turn", runs, failures)
		if failures == 0 {
			t.Fatalf("%d runs: no allocation was ever refused", runs)
		}
	}
}

// TestHeapFilesTakeNoFrame: a heap file holds no buffer-pool frame, so
// appending 3,000 rows twice, scanning them back and sorting them
// externally all run on a pool of one frame.
func TestHeapFilesTakeNoFrame(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 1)
	schema := tuple.IntSchema("k", "seq")
	rng := rand.New(rand.NewSource(5))
	rows := make([][]int64, 3000)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(40), int64(i)}
	}
	want := slices.Concat(rows, rows)
	f := heapFile(t, pool, schema, want)
	requireSameRows(t, "scan", drainRows(t, NewHeapScan(f)), want)
	keys := []SortKey{{Col: 0}}
	requireSameRows(t, "external sort",
		drainRows(t, NewSortKeys(NewHeapScan(f), keys, pool, sortRunBytes)),
		drainRows(t, NewSortKeys(NewMemScan(schema, want), keys, nil, 0)))
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
}

// TestSortSkipsAlreadySortedInput: a single-key sort of input already in
// key order is the identity permutation — item values stay in input order
// within equal trans_id runs.
func TestSortSkipsAlreadySortedInput(t *testing.T) {
	rows := keyRuns(3000, 13)
	f := heapFile(t, nil, tuple.IntSchema("trans_id", "item"), rows)
	got := drainRows(t, NewSortKeys(NewHeapScan(f), []SortKey{{Col: 0}}, nil, 0))
	requireSameRows(t, "sort of pre-sorted input", got, rows)
}
