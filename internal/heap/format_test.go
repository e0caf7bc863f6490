package heap

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"setm/internal/storage"
	"setm/internal/tuple"
)

// wantRowsPerPage is the page-format arithmetic, restated independently of
// the implementation: (PageSize-8)/(8·cols) rows a page.
func wantRowsPerPage(s *tuple.Schema) int {
	return (storage.PageSize - 8) / (8 * s.Len())
}

// randSchema draws 1…64 INT columns, or 1…6 columns with at least one
// string among them, which Create must refuse.
func randSchema(rng *rand.Rand, ncols int, mixed bool) *tuple.Schema {
	if !mixed {
		names := make([]string, 1+ncols%64)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
		return tuple.IntSchema(names...)
	}
	cols := make([]tuple.Column, 1+ncols%6)
	str := rng.Intn(len(cols))
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: tuple.KindInt}
		if i == str || rng.Intn(3) == 0 {
			cols[i].Kind = tuple.KindString
		}
	}
	return tuple.NewSchema(cols...)
}

func randTuple(rng *rand.Rand, s *tuple.Schema) tuple.Tuple {
	t := make(tuple.Tuple, s.Len())
	for i := range t {
		switch rng.Intn(8) {
		case 0:
			t[i] = tuple.I(math.MinInt64)
		case 1:
			t[i] = tuple.I(math.MaxInt64)
		default:
			t[i] = tuple.I(rng.Int63() - rng.Int63())
		}
	}
	return t
}

// checkFile compares every read path of f with the rows it should hold.
func checkFile(t *testing.T, rng *rand.Rand, f *File, want []tuple.Tuple) {
	t.Helper()
	s := f.Schema()
	if f.Rows() != int64(len(want)) {
		t.Fatalf("Rows = %d, want %d", f.Rows(), len(want))
	}
	per := wantRowsPerPage(s)
	if wantPages := max(1, (len(want)+per-1)/per); f.Pages() != wantPages {
		t.Fatalf("Pages = %d, want ceil(%d/%d) = %d", f.Pages(), len(want), per, wantPages)
	}
	same := func(label string, got []tuple.Tuple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range got {
			if !tuple.EqualTuples(got[i], want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	same("Scan/Next", got)

	// NextBatch, with max below a page, around a page and at BatchSize.
	for _, lim := range []int{1, 7, per - 1, per + 1, tuple.BatchSize} {
		if lim < 1 {
			continue
		}
		got = got[:0]
		sc := f.Scan()
		b := tuple.NewBatch(s)
		for {
			b.Reset()
			k, err := sc.NextBatch(b, lim)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if k != b.Len() || k > lim || k == 0 {
				t.Fatalf("NextBatch(max=%d) reported %d rows, batch holds %d", lim, k, b.Len())
			}
			for i := 0; i < k; i++ {
				got = append(got, b.Row(i))
			}
		}
		sc.Close()
		same(fmt.Sprintf("NextBatch(max=%d)", lim), got)
	}

}

// roundTrip drives one randomized file: interleaved Append and AppendBatch
// (batch sizes around rowsCap and BatchSize, with and without selection
// vectors), every read path against an in-memory reference, then Free and a
// second file that reuses the freed pages. A mixed schema must be refused.
func roundTrip(t *testing.T, seed int64, ncols int, mixed bool, ops int) {
	rng := rand.New(rand.NewSource(seed))
	s := randSchema(rng, ncols, mixed)
	pool := newPool(3 + rng.Intn(6))
	if mixed {
		if _, err := Create(pool, s); err == nil {
			t.Fatalf("Create accepted %v", s)
		}
		return
	}
	per := wantRowsPerPage(s)
	sizes := []int{0, 1, per - 1, per, per + 1, 2*per + 3, tuple.BatchSize - 1, tuple.BatchSize, tuple.BatchSize + 1}
	freed, storePages := 0, 0 // the first file's pages, and the store's size once it is freed
	for round := 0; round < 2; round++ {
		f, err := Create(pool, s)
		if err != nil {
			t.Fatal(err)
		}
		var want []tuple.Tuple
		for op := 0; op < 1+ops%12; op++ {
			if rng.Intn(3) == 0 {
				tp := randTuple(rng, s)
				if err := f.Append(tp); err != nil {
					t.Fatal(err)
				}
				want = append(want, tp)
				continue
			}
			n := sizes[rng.Intn(len(sizes))]
			if n < 0 || rng.Intn(4) == 0 {
				n = rng.Intn(300)
			}
			b := tuple.NewBatch(s)
			for i := 0; i < n; i++ {
				if err := b.AppendTuple(randTuple(rng, s)); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				sel := []int32{}
				for i := 0; i < n; i++ {
					if rng.Intn(3) > 0 {
						sel = append(sel, int32(i))
					}
				}
				b.SetSel(sel)
			}
			if err := f.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b.Len(); i++ {
				want = append(want, b.Row(i))
			}
		}
		checkFile(t, rng, f, want)
		if grown := pool.Store().NumPages() - storePages; round == 1 && grown > max(0, f.Pages()-freed) {
			t.Fatalf("second file of %d pages grew the store by %d with %d freed pages to reuse", f.Pages(), grown, freed)
		}
		freed = f.Pages()
		f.Free()
		storePages = pool.Store().NumPages()
		if f.Pages() != 0 || f.Rows() != 0 {
			t.Fatalf("after Free: %d pages, %d rows", f.Pages(), f.Rows())
		}
	}
	if pool.PinnedFrames() != 0 {
		t.Fatalf("%d frames left pinned", pool.PinnedFrames())
	}
}

func TestHeapRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		roundTrip(t, seed, int(seed*7), seed%3 == 0, int(seed))
	}
}

func FuzzHeapRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(1), false, uint8(5))
	f.Add(int64(2), uint8(63), false, uint8(9))
	f.Add(int64(3), uint8(2), true, uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, ncols uint8, mixed bool, ops uint8) {
		roundTrip(t, seed, int(ncols), mixed, int(ops))
	})
}

// TestAppendBatchAllocationFault refuses the N-th page allocation in the
// middle of an AppendBatch, for every N the batch needs. The file must keep
// exactly the rows it reports, stay appendable, and lose nothing to
// eviction (the pool is two frames).
func TestAppendBatchAllocationFault(t *testing.T) {
	for _, s := range []*tuple.Schema{tuple.IntSchema("a", "b"), tuple.IntSchema("a", "b", "c", "d", "e")} {
		rng := rand.New(rand.NewSource(11))
		b := tuple.NewBatch(s)
		for i := 0; i < 2000; i++ {
			if err := b.AppendTuple(randTuple(rng, s)); err != nil {
				t.Fatal(err)
			}
		}
		for n := 1; ; n++ {
			fs := storage.NewFaultStore(storage.NewMemStore())
			fs.FailAllocAfter = n
			f, err := Create(storage.NewPool(fs, 2), s)
			if err != nil {
				t.Fatal(err)
			}
			err = f.AppendBatch(b)
			if err == nil {
				if n == 1 {
					t.Fatal("the batch never needed a second page")
				}
				break // the batch fits in n pages: sweep done
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("alloc %d: %v", n, err)
			}
			kept := int(f.Rows())
			if kept == 0 || kept >= b.Len() || f.Pages() != n {
				t.Fatalf("alloc %d: file reports %d rows on %d pages", n, kept, f.Pages())
			}
			fs.FailAllocAfter = -1
			// A single Append lands after the kept rows, not on top of them.
			extra := randTuple(rng, s)
			if err := f.Append(extra); err != nil {
				t.Fatal(err)
			}
			rest := tuple.NewBatch(s)
			rest.AppendRange(b, kept, b.Len())
			if err := f.AppendBatch(rest); err != nil {
				t.Fatal(err)
			}
			want := make([]tuple.Tuple, 0, b.Len()+1)
			for i := 0; i < b.Len(); i++ {
				if i == kept {
					want = append(want, extra)
				}
				want = append(want, b.Row(i))
			}
			checkFile(t, rng, f, want)
		}
	}
}

func TestPageFormatGuards(t *testing.T) {
	// 511 INT columns still fit one row a page; 512 and none are refused
	// at Create.
	names := make([]string, 512)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	row := make([]int64, 511)
	f, err := Create(newPool(4), tuple.IntSchema(names[:511]...))
	if err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatch(f.Schema())
	for i := 0; i < 3; i++ {
		if err := b.AppendTuple(tuple.Ints(row...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Append(tuple.Ints(row...)); err != nil {
		t.Errorf("511 columns: Append: %v", err)
	}
	if err := f.AppendBatch(b); err != nil {
		t.Errorf("511 columns: AppendBatch: %v", err)
	}
	if f.Rows() != 4 || f.Pages() != 4 {
		t.Errorf("511 columns: %d rows on %d pages, want 4 on 4", f.Rows(), f.Pages())
	}
	for _, s := range []*tuple.Schema{tuple.IntSchema(names...), tuple.IntSchema()} {
		if _, err := Create(newPool(4), s); err == nil {
			t.Errorf("Create accepted %d columns", s.Len())
		}
	}

	f, err = Create(newPool(4), tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]tuple.Tuple{
		"short":   tuple.Ints(1),
		"long":    tuple.Ints(1, 2, 3),
		"non-INT": {tuple.I(1), tuple.S("x")},
	} {
		if err := f.Append(bad); err == nil {
			t.Errorf("Append accepted a %s tuple", name)
		}
	}
	if err := f.AppendBatch(tuple.NewBatch(tuple.IntSchema("a"))); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	narrow := tuple.NewBatch(tuple.IntSchema("a"))
	if err := narrow.AppendTuple(tuple.Ints(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendBatch(narrow); err == nil {
		t.Error("AppendBatch accepted a batch of the wrong arity")
	}
	if err := f.Append(tuple.Ints(7, 8)); err != nil {
		t.Fatal(err)
	}
	sc := f.Scan()
	defer sc.Close()
	if _, err := sc.NextBatch(narrow, 10); err == nil || err == io.EOF {
		t.Errorf("NextBatch into a batch of the wrong arity: %v", err)
	}
	checkFile(t, rand.New(rand.NewSource(1)), f, []tuple.Tuple{tuple.Ints(7, 8)})
}
