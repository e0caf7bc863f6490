package heap

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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
// that is not INT among them, which Create must refuse.
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
			cols[i].Kind = tuple.Kind(1)
		}
	}
	return tuple.NewSchema(cols...)
}

func randRow(rng *rand.Rand, s *tuple.Schema) []int64 {
	r := make([]int64, s.Len())
	for i := range r {
		switch rng.Intn(8) {
		case 0:
			r[i] = math.MinInt64
		case 1:
			r[i] = math.MaxInt64
		default:
			r[i] = rng.Int63() - rng.Int63()
		}
	}
	return r
}

// batchRows returns b's logical rows.
func batchRows(b *tuple.Batch) [][]int64 {
	out := make([][]int64, b.Len())
	for i := range out {
		out[i] = make([]int64, len(b.Cols))
		for c := range out[i] {
			out[i][c] = b.Cols[c].I[b.RowIdx(i)]
		}
	}
	return out
}

// checkFile compares every read path of f with the rows it should hold.
func checkFile(t *testing.T, f *File, want [][]int64) {
	t.Helper()
	s := f.Schema()
	if f.Rows() != int64(len(want)) {
		t.Fatalf("Rows = %d, want %d", f.Rows(), len(want))
	}
	per := wantRowsPerPage(s)
	if wantPages := (len(want) + per - 1) / per; f.Pages() != wantPages {
		t.Fatalf("Pages = %d, want ceil(%d/%d) = %d", f.Pages(), len(want), per, wantPages)
	}
	// NextBatch, with max below a page, around a page and at BatchSize.
	for _, lim := range []int{1, 7, per - 1, per + 1, tuple.BatchSize} {
		if lim < 1 {
			continue
		}
		got := readAll(t, f, lim)
		if len(got) != len(want) {
			t.Fatalf("NextBatch(max=%d): %d rows, want %d", lim, len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("NextBatch(max=%d): row %d = %v, want %v", lim, i, got[i], want[i])
			}
		}
	}
}

// roundTrip drives one randomized file: interleaved single-row and larger
// AppendBatch calls (batch sizes around rowsCap and BatchSize, with and
// without selection vectors), every read path against an in-memory
// reference, then Free and a second file that reuses the freed pages. A
// mixed schema must be refused.
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
		var want [][]int64
		for op := 0; op < 1+ops%12; op++ {
			if rng.Intn(3) == 0 {
				r := randRow(rng, s)
				if err := appendRows(f, r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
				continue
			}
			n := sizes[rng.Intn(len(sizes))]
			if n < 0 || rng.Intn(4) == 0 {
				n = rng.Intn(300)
			}
			b := tuple.NewBatch(s)
			for i := 0; i < n; i++ {
				for c, v := range randRow(rng, s) {
					b.Cols[c].I = append(b.Cols[c].I, v)
				}
				b.BumpRow()
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
			want = append(want, batchRows(b)...)
		}
		checkFile(t, f, want)
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
// exactly the rows it reports and stay appendable.
func TestAppendBatchAllocationFault(t *testing.T) {
	for _, s := range []*tuple.Schema{tuple.IntSchema("a", "b"), tuple.IntSchema("a", "b", "c", "d", "e")} {
		rng := rand.New(rand.NewSource(11))
		b := tuple.NewBatch(s)
		for i := 0; i < 2000; i++ {
			for c, v := range randRow(rng, s) {
				b.Cols[c].I = append(b.Cols[c].I, v)
			}
			b.BumpRow()
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
			// A single-row append lands after the kept rows, not on top of them.
			extra := randRow(rng, s)
			if err := appendRows(f, extra); err != nil {
				t.Fatal(err)
			}
			rest := tuple.NewBatch(s)
			rest.AppendRange(b, kept, b.Len())
			if err := f.AppendBatch(rest); err != nil {
				t.Fatal(err)
			}
			all := batchRows(b)
			want := slices.Concat(all[:kept], [][]int64{extra}, all[kept:])
			checkFile(t, f, want)
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
	if err := appendRows(f, row); err != nil {
		t.Errorf("511 columns: one row: %v", err)
	}
	if err := appendRows(f, row, row, row); err != nil {
		t.Errorf("511 columns: three rows: %v", err)
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
	if err := f.AppendBatch(tuple.NewBatch(tuple.IntSchema("a"))); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	narrow := tuple.NewBatch(tuple.IntSchema("a"))
	narrow.Cols[0].I = append(narrow.Cols[0].I, 1)
	narrow.BumpRow()
	wide := tuple.NewBatch(tuple.IntSchema("a", "b", "c"))
	for c := range wide.Cols {
		wide.Cols[c].I = append(wide.Cols[c].I, int64(c))
	}
	wide.BumpRow()
	for name, bad := range map[string]*tuple.Batch{"short": narrow, "long": wide} {
		if err := f.AppendBatch(bad); err == nil {
			t.Errorf("AppendBatch accepted a %s row", name)
		}
	}
	if err := appendRows(f, []int64{7, 8}); err != nil {
		t.Fatal(err)
	}
	sc := f.Scan()
	defer sc.Close()
	if _, err := sc.NextBatch(narrow, 10); err == nil || err == io.EOF {
		t.Errorf("NextBatch into a batch of the wrong arity: %v", err)
	}
	checkFile(t, f, [][]int64{{7, 8}})
}
