package heap

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"setm/internal/storage"
	"setm/internal/tuple"
)

func newPool(frames int) *storage.Pool {
	return storage.NewPool(storage.NewMemStore(), frames)
}

func TestAppendScanRoundTrip(t *testing.T) {
	pool := newPool(16)
	f, err := Create(pool, tuple.IntSchema("trans_id", "item"))
	if err != nil {
		t.Fatal(err)
	}
	want := []tuple.Tuple{
		tuple.Ints(10, 1), tuple.Ints(10, 2), tuple.Ints(20, 1), tuple.Ints(30, 5),
	}
	if err := f.AppendAll(want); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !tuple.EqualTuples(got[i], want[i]) {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	if f.Rows() != int64(len(want)) {
		t.Errorf("Rows = %d, want %d", f.Rows(), len(want))
	}
}

func TestMultiPageSpill(t *testing.T) {
	pool := newPool(4)
	f, err := Create(pool, tuple.IntSchema("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // 3 ints = 24 bytes, 170 rows a page, so 30 pages
	for i := 0; i < n; i++ {
		if err := f.Append(tuple.Ints(int64(i), int64(i*2), int64(i*3))); err != nil {
			t.Fatal(err)
		}
	}
	if f.Pages() < 2 {
		t.Fatalf("expected multi-page file, got %d pages", f.Pages())
	}
	sc := f.Scan()
	defer sc.Close()
	i := 0
	for {
		tp, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tp[0].Int != int64(i) || tp[2].Int != int64(i*3) {
			t.Fatalf("row %d corrupted: %v", i, tp)
		}
		i++
	}
	if i != n {
		t.Errorf("scanned %d rows, want %d", i, n)
	}
}

func TestScanSurvivesEviction(t *testing.T) {
	// A pool of 2 frames forces every page of a large file to be evicted and
	// re-read; the scan must still see every tuple in order.
	pool := newPool(2)
	f, err := Create(pool, tuple.IntSchema("v"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := f.Append(tuple.Ints(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d rows, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp[0].Int != int64(i) {
			t.Fatalf("row %d = %v", i, tp)
		}
	}
}

// TestStringColumns: a STRING column is refused at Create, before any
// page is allocated.
func TestStringColumns(t *testing.T) {
	pool := newPool(8)
	sch := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
	)
	f, err := Create(pool, sch)
	if err == nil || !strings.Contains(err.Error(), `column "name" is STRING`) {
		t.Fatalf("Create(%v) = %v, %v; want the non-INT error", sch, f, err)
	}
	if n := pool.Store().NumPages(); n != 0 {
		t.Errorf("a refused Create allocated %d pages", n)
	}
}

// TestOversizeTupleRejected: a row wider than a page (512 INT columns,
// 4096 bytes against 4088 after the header) is refused at Create.
func TestOversizeTupleRejected(t *testing.T) {
	names := make([]string, 512)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	pool := newPool(8)
	if _, err := Create(pool, tuple.IntSchema(names...)); err == nil || !strings.Contains(err.Error(), "exceeds page capacity") {
		t.Errorf("512 columns: %v, want the capacity error", err)
	}
	if f, err := Create(pool, tuple.IntSchema(names[:511]...)); err != nil || f.rowsCap != 1 {
		t.Errorf("511 columns: %v, %v; want one row a page", f, err)
	}
}

func TestEmptyFileScan(t *testing.T) {
	pool := newPool(4)
	f, err := Create(pool, tuple.IntSchema("x"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file scanned %d rows", len(got))
	}
	if f.Pages() != 1 {
		t.Errorf("empty file has %d pages, want 1", f.Pages())
	}
}

func TestQuickRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		pool := newPool(4)
		hf, err := Create(pool, tuple.IntSchema("v"))
		if err != nil {
			return false
		}
		for _, v := range vals {
			if err := hf.Append(tuple.Ints(v)); err != nil {
				return false
			}
		}
		got, err := hf.ReadAll()
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i, v := range vals {
			if got[i][0].Int != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPagesMatchesFootprint(t *testing.T) {
	pool := newPool(4)
	f, err := Create(pool, tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		if err := f.Append(tuple.Ints(rng.Int63(), rng.Int63())); err != nil {
			t.Fatal(err)
		}
	}
	// All-INT pages are column-major with no per-row prefix: 2 ints = 16
	// bytes a row, (4096-8)/16 = 255 rows a page — the entries-per-page
	// arithmetic of the paper's Section 3.2.
	perPage := (storage.PageSize - hdrSize) / (8 * f.Schema().Len())
	wantPages := (3000 + perPage - 1) / perPage
	if f.Pages() != wantPages {
		t.Errorf("Pages = %d, want %d", f.Pages(), wantPages)
	}
	if f.SizeBytes() != int64(wantPages)*storage.PageSize {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
}
