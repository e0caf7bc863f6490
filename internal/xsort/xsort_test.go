package xsort_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"setm/internal/exec"
	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
	"setm/internal/xsort"
)

func newPool() *storage.Pool {
	return storage.NewPool(storage.NewMemStore(), 128)
}

// makeFile writes rows into a fresh heap file with the named columns.
func makeFile(t testing.TB, pool *storage.Pool, rows [][]int64, names ...string) *hp.File {
	t.Helper()
	b := tuple.NewBatch(tuple.IntSchema(names...))
	for _, r := range rows {
		for c, v := range r {
			b.Cols[c].I = append(b.Cols[c].I, v)
		}
		b.BumpRow()
	}
	f, err := hp.Create(pool, b.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	return f
}

// readFile returns every row of f.
func readFile(t testing.TB, f *hp.File) [][]int64 {
	t.Helper()
	rows, err := exec.Drain(exec.NewHeapScan(f))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// sortFile sorts in through the external sort — runs of at most memLimit
// bytes (0 = the default), merged by MergeFiles — and returns its rows.
// Ascending on every key column unless desc says otherwise.
func sortFile(t testing.TB, pool *storage.Pool, in *hp.File, memLimit int, cols []int, desc ...bool) [][]int64 {
	t.Helper()
	keys := make([]exec.SortKey, len(cols))
	for i, c := range cols {
		keys[i] = exec.SortKey{Col: c, Desc: i < len(desc) && desc[i]}
	}
	rows, err := exec.Drain(exec.NewSortKeys(exec.NewHeapScan(in), keys, pool, memLimit))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// isSorted reports whether rows ascend on column c.
func isSorted(rows [][]int64, c int) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i-1][c] > rows[i][c] {
			return false
		}
	}
	return true
}

func TestSortSmallInMemory(t *testing.T) {
	pool := newPool()
	f := makeFile(t, pool, [][]int64{{3, 1}, {1, 2}, {2, 0}, {1, 1}}, "a", "b")
	got := sortFile(t, pool, f, 0, []int{0, 1})
	want := [][]int64{{1, 1}, {1, 2}, {2, 0}, {3, 1}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("sorted = %v, want %v", got, want)
	}
}

func TestExternalSortSpillsAndMerges(t *testing.T) {
	pool := newPool()
	rng := rand.New(rand.NewSource(9))
	const n = 10000
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(5000), int64(i)}
	}
	f := makeFile(t, pool, rows, "k", "seq")
	// Tiny memory limit forces many runs.
	got := sortFile(t, pool, f, 4096, []int{0})
	if len(got) != n {
		t.Fatalf("sorted %d rows, want %d", len(got), n)
	}
	if !isSorted(got, 0) {
		t.Error("external sort output not sorted")
	}
}

func TestExternalSortStability(t *testing.T) {
	// Stable sorting: equal keys keep input order (checked via the seq col).
	pool := newPool()
	const n = 5000
	rows := make([][]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range rows {
		rows[i] = []int64{rng.Int63n(10), int64(i)}
	}
	f := makeFile(t, pool, rows, "k", "seq")
	got := sortFile(t, pool, f, 2048, []int{0})
	for i := 1; i < len(got); i++ {
		if got[i-1][0] == got[i][0] && got[i-1][1] > got[i][1] {
			t.Fatalf("instability at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func TestSortEmptyAndSingleton(t *testing.T) {
	pool := newPool()
	if got := sortFile(t, pool, makeFile(t, pool, nil, "x"), 0, []int{0}); len(got) != 0 {
		t.Errorf("empty sort produced %d rows", len(got))
	}
	got := sortFile(t, pool, makeFile(t, pool, [][]int64{{7}}, "x"), 0, []int{0})
	if len(got) != 1 || got[0][0] != 7 {
		t.Errorf("singleton sort = %v", got)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
}

func TestSortMatchesSortPackage(t *testing.T) {
	f := func(vals []int64) bool {
		pool := newPool()
		rows := make([][]int64, len(vals))
		for i, v := range vals {
			rows[i] = []int64{v}
		}
		got := sortFile(t, pool, makeFile(t, pool, rows, "v"), 64, []int{0}) // force spills
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i][0] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMultiColumnOrdering(t *testing.T) {
	pool := newPool()
	rows := [][]int64{{30, 1, 2}, {10, 2, 1}, {10, 1, 9}, {20, 5, 5}, {10, 1, 3}}
	f := makeFile(t, pool, rows, "tid", "i1", "i2")
	// Sort on (tid, i1, i2), SETM's R_k ordering, in one run and in runs of
	// one row each.
	want := [][]int64{{10, 1, 3}, {10, 1, 9}, {10, 2, 1}, {20, 5, 5}, {30, 1, 2}}
	for _, mem := range []int{0, 24} {
		if got := sortFile(t, pool, f, mem, []int{0, 1, 2}); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("mem %d: sorted = %v, want %v", mem, got, want)
		}
	}
	// DESC on the second key flips only that key's order.
	want = [][]int64{{10, 2, 1}, {10, 1, 3}, {10, 1, 9}, {20, 5, 5}, {30, 1, 2}}
	if got := sortFile(t, pool, f, 24, []int{0, 1, 2}, false, true); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("desc: sorted = %v, want %v", got, want)
	}
}

// TestFileMergesBeyondThePoolAndFreesItsRuns merges 40 sorted runs through
// a 16-frame pool: MergeFiles must cascade instead of opening every run at
// once, stay stable across the cascade (ties toward the earlier run), and
// leave nothing behind but the one output file.
func TestFileMergesBeyondThePoolAndFreesItsRuns(t *testing.T) {
	store := storage.NewMemStore()
	pool := storage.NewPool(store, 16)
	rng := rand.New(rand.NewSource(4))
	rows := make([][]int64, 10000)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(50), int64(i)}
	}
	var runs []*hp.File
	for from := 0; from < len(rows); from += 250 {
		run := slices.Clone(rows[from : from+250])
		sort.SliceStable(run, func(i, j int) bool { return run[i][0] < run[j][0] })
		runs = append(runs, makeFile(t, pool, run, "k", "seq"))
	}
	out, err := xsort.MergeFiles(pool, runs, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(rows)
	sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	got := readFile(t, out)
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("row %d = %v, want %v (cascade not stable?)", i, got[i], want[i])
		}
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
	// Every page but the output's is back on the free list: that many
	// allocations are served without growing the store.
	pages := store.NumPages()
	for i := out.Pages(); i < pages; i++ {
		if _, err := pool.AppendPages(nil, make([]byte, storage.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if store.NumPages() != pages {
		t.Errorf("store grew %d -> %d pages: runs were not freed", pages, store.NumPages())
	}
}

// TestIsSortedDetectsDisorder guards the check the sort tests above
// rely on: rows out of order must be reported as such.
func TestIsSortedDetectsDisorder(t *testing.T) {
	if isSorted([][]int64{{2}, {1}}, 0) {
		t.Error("isSorted accepted disorder")
	}
}
