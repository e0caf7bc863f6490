package xsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

func newPool() *storage.Pool {
	return storage.NewPool(storage.NewMemStore(), 128)
}

// sortFile sorts the tuples of a heap file through Stream.
func sortFile(pool *storage.Pool, in *hp.File, cmp Comparator, memLimit int) (*hp.File, error) {
	sc := in.Scan()
	defer sc.Close()
	return Stream(pool, in.Schema(), sc, cmp, memLimit)
}

// byColumns orders tuples ascending on the given column indexes.
func byColumns(idxs ...int) Comparator {
	return func(a, b tuple.Tuple) int { return tuple.CompareAt(a, b, idxs) }
}

// isSorted reports whether a heap file's tuples are in cmp order.
func isSorted(f *hp.File, cmp Comparator) (bool, error) {
	rows, err := f.ReadAll()
	if err != nil {
		return false, err
	}
	for i := 1; i < len(rows); i++ {
		if cmp(rows[i-1], rows[i]) > 0 {
			return false, nil
		}
	}
	return true, nil
}

func makeFile(t *testing.T, pool *storage.Pool, rows []tuple.Tuple, names ...string) *hp.File {
	t.Helper()
	f, err := hp.Create(pool, tuple.IntSchema(names...))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSortSmallInMemory(t *testing.T) {
	pool := newPool()
	rows := []tuple.Tuple{
		tuple.Ints(3, 1), tuple.Ints(1, 2), tuple.Ints(2, 0), tuple.Ints(1, 1),
	}
	f := makeFile(t, pool, rows, "a", "b")
	out, err := sortFile(pool, f, tuple.CompareAll, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []tuple.Tuple{
		tuple.Ints(1, 1), tuple.Ints(1, 2), tuple.Ints(2, 0), tuple.Ints(3, 1),
	}
	for i := range want {
		if !tuple.EqualTuples(got[i], want[i]) {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExternalSortSpillsAndMerges(t *testing.T) {
	pool := newPool()
	rng := rand.New(rand.NewSource(9))
	const n = 10000
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Ints(rng.Int63n(5000), int64(i))
	}
	f := makeFile(t, pool, rows, "k", "seq")
	// Tiny memory limit forces many runs.
	out, err := sortFile(pool, f, byColumns(0), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != n {
		t.Fatalf("sorted file has %d rows, want %d", out.Rows(), n)
	}
	sorted, err := isSorted(out, byColumns(0))
	if err != nil {
		t.Fatal(err)
	}
	if !sorted {
		t.Error("external sort output not sorted")
	}
}

func TestExternalSortStability(t *testing.T) {
	// Stable sorting: equal keys keep input order (checked via the seq col).
	pool := newPool()
	const n = 5000
	rows := make([]tuple.Tuple, n)
	rng := rand.New(rand.NewSource(3))
	for i := range rows {
		rows[i] = tuple.Ints(rng.Int63n(10), int64(i))
	}
	f := makeFile(t, pool, rows, "k", "seq")
	out, err := sortFile(pool, f, byColumns(0), 2048)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][0].Int == got[i][0].Int && got[i-1][1].Int > got[i][1].Int {
			t.Fatalf("instability at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func TestSortEmptyAndSingleton(t *testing.T) {
	pool := newPool()
	f := makeFile(t, pool, nil, "x")
	out, err := sortFile(pool, f, byColumns(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 0 {
		t.Errorf("empty sort produced %d rows", out.Rows())
	}
	f1 := makeFile(t, pool, []tuple.Tuple{tuple.Ints(7)}, "x")
	out1, err := sortFile(pool, f1, byColumns(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := out1.ReadAll()
	if len(got) != 1 || got[0][0].Int != 7 {
		t.Errorf("singleton sort = %v", got)
	}
}

func TestSortMatchesSortPackage(t *testing.T) {
	f := func(vals []int64) bool {
		pool := newPool()
		rows := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Ints(v)
		}
		hf, err := hp.Create(pool, tuple.IntSchema("v"))
		if err != nil {
			return false
		}
		if err := hf.AppendAll(rows); err != nil {
			return false
		}
		out, err := sortFile(pool, hf, byColumns(0), 64) // force spills
		if err != nil {
			return false
		}
		got, err := out.ReadAll()
		if err != nil || len(got) != len(vals) {
			return false
		}
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i][0].Int != want[i] {
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
	rows := []tuple.Tuple{
		tuple.Ints(30, 1, 2), tuple.Ints(10, 2, 1), tuple.Ints(10, 1, 9),
		tuple.Ints(20, 5, 5), tuple.Ints(10, 1, 3),
	}
	f := makeFile(t, pool, rows, "tid", "i1", "i2")
	// Sort on (tid, i1, i2), SETM's R_k ordering.
	out, err := sortFile(pool, f, byColumns(0, 1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []tuple.Tuple{
		tuple.Ints(10, 1, 3), tuple.Ints(10, 1, 9), tuple.Ints(10, 2, 1),
		tuple.Ints(20, 5, 5), tuple.Ints(30, 1, 2),
	}
	for i := range want {
		if !tuple.EqualTuples(got[i], want[i]) {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFileMergesBeyondThePoolAndFreesItsRuns sorts 40 runs through a
// 16-frame pool: the merge must cascade instead of opening every run at
// once, stay stable across the cascade, and leave nothing behind but the
// caller's input and the one output file.
func TestFileMergesBeyondThePoolAndFreesItsRuns(t *testing.T) {
	store := storage.NewMemStore()
	pool := storage.NewPool(store, 16)
	rng := rand.New(rand.NewSource(4))
	rows := make([]tuple.Tuple, 10000)
	for i := range rows {
		rows[i] = tuple.Ints(rng.Int63n(50), int64(i))
	}
	in := makeFile(t, pool, rows, "k", "seq")
	out, err := sortFile(pool, in, byColumns(0), 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]tuple.Tuple{}, rows...)
	sort.SliceStable(want, func(i, j int) bool { return want[i][0].Int < want[j][0].Int })
	if len(got) != len(want) {
		t.Fatalf("sorted %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !tuple.EqualTuples(got[i], want[i]) {
			t.Fatalf("row %d = %v, want %v (cascade not stable?)", i, got[i], want[i])
		}
	}
	if again, err := in.ReadAll(); err != nil || len(again) != len(rows) {
		t.Fatalf("input file after the sort: %d rows, err %v", len(again), err)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
	// Every page that is neither input nor output is back on the free list:
	// that many allocations are served without growing the store.
	pages := store.NumPages()
	for i := in.Pages() + out.Pages(); i < pages; i++ {
		pg, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(pg)
	}
	if store.NumPages() != pages {
		t.Errorf("store grew %d -> %d pages: runs were not freed", pages, store.NumPages())
	}
}

// TestIsSortedDetectsDisorder guards the check the sort tests above
// rely on: a file out of order must be reported as such.
func TestIsSortedDetectsDisorder(t *testing.T) {
	pool := newPool()
	f := makeFile(t, pool, []tuple.Tuple{tuple.Ints(2), tuple.Ints(1)}, "x")
	ok, err := isSorted(f, byColumns(0))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("isSorted accepted disorder")
	}
}
