package heap

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"setm/internal/storage"
	"setm/internal/tuple"
)

func newPool(frames int) *storage.Pool {
	return storage.NewPool(storage.NewMemStore(), frames)
}

// appendRows appends rows to f as one batch.
func appendRows(f *File, rows ...[]int64) error {
	b := tuple.NewBatch(f.Schema())
	for _, r := range rows {
		for c, v := range r {
			b.Cols[c].I = append(b.Cols[c].I, v)
		}
		b.BumpRow()
	}
	return f.AppendBatch(b)
}

// readAll scans f through NextBatch, at most max rows a call, checking each
// call's count against the batch it filled.
func readAll(t testing.TB, f *File, max int) [][]int64 {
	t.Helper()
	sc := f.Scan()
	defer sc.Close()
	b := tuple.NewBatch(f.Schema())
	var out [][]int64
	for {
		b.Reset()
		k, err := sc.NextBatch(b, max)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if k != b.Len() || k > max || k == 0 {
			t.Fatalf("NextBatch(max=%d) reported %d rows, batch holds %d", max, k, b.Len())
		}
		for i := range k {
			row := make([]int64, len(b.Cols))
			for c := range row {
				row[c] = b.Cols[c].I[i]
			}
			out = append(out, row)
		}
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	pool := newPool(16)
	f, err := Create(pool, tuple.IntSchema("trans_id", "item"))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{10, 1}, {10, 2}, {20, 1}, {30, 5}}
	if err := appendRows(f, want...); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f, tuple.BatchSize); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("rows = %v, want %v", got, want)
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
	for i := 0; i < n; i += 100 {
		rows := make([][]int64, 100)
		for j := range rows {
			v := int64(i + j)
			rows[j] = []int64{v, v * 2, v * 3}
		}
		if err := appendRows(f, rows...); err != nil {
			t.Fatal(err)
		}
	}
	if f.Pages() < 2 {
		t.Fatalf("expected multi-page file, got %d pages", f.Pages())
	}
	got := readAll(t, f, tuple.BatchSize)
	for i, tp := range got {
		if tp[0] != int64(i) || tp[2] != int64(i*3) {
			t.Fatalf("row %d corrupted: %v", i, tp)
		}
	}
	if len(got) != n {
		t.Errorf("scanned %d rows, want %d", len(got), n)
	}
}

func TestScanSurvivesEviction(t *testing.T) {
	// A file of many pages in a pool of 2 frames, which a heap file never
	// uses: the scan must still see every row in order.
	pool := newPool(2)
	f, err := Create(pool, tuple.IntSchema("v"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	if err := appendRows(f, rows...); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, f, tuple.BatchSize)
	if len(got) != n {
		t.Fatalf("got %d rows, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp[0] != int64(i) {
			t.Fatalf("row %d = %v", i, tp)
		}
	}
}

// TestStringColumns: a column that is not INT (a string column, once) is
// refused at Create, before any page is allocated.
func TestStringColumns(t *testing.T) {
	pool := newPool(8)
	sch := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.Kind(1)},
	)
	f, err := Create(pool, sch)
	if err == nil || !strings.Contains(err.Error(), `column "name" is Kind(1)`) {
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
	if got := readAll(t, f, tuple.BatchSize); len(got) != 0 {
		t.Errorf("empty file scanned %d rows", len(got))
	}
	if f.Pages() != 0 {
		t.Errorf("empty file has %d pages, want 0", f.Pages())
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
			if err := appendRows(hf, []int64{v}); err != nil {
				return false
			}
		}
		got := readAll(t, hf, 7)
		if len(got) != len(vals) {
			return false
		}
		for i, v := range vals {
			if got[i][0] != v {
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
		if err := appendRows(f, []int64{rng.Int63(), rng.Int63()}); err != nil {
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

// TestColumnRanges: a file bounds each column by exactly what AppendBatch
// encoded — through a selection vector, across a partial last page that
// is read back and refilled — and Free empties the bounds.
func TestColumnRanges(t *testing.T) {
	f, err := Create(newPool(8), tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, want ...tuple.Range) {
		t.Helper()
		for c, w := range want {
			if got := f.Ranges()[c]; got != w {
				t.Fatalf("%s: column %d range %+v, want %+v", label, c, got, w)
			}
		}
	}
	check("empty", tuple.EmptyRange, tuple.EmptyRange)

	// 300 rows: more than a 255-row page, so the last page is partial.
	b := tuple.NewBatch(f.Schema())
	for i := int64(0); i < 300; i++ {
		b.Cols[0].I = append(b.Cols[0].I, i-100)
		b.Cols[1].I = append(b.Cols[1].I, 7)
		b.BumpRow()
	}
	if err := f.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	check("dense", tuple.Range{Lo: -100, Hi: 199}, tuple.Range{Lo: 7, Hi: 7})

	// Under a selection only the selected rows widen the bounds; they fill
	// the partial last page, then a new one.
	s := tuple.NewBatch(f.Schema())
	for i := int64(0); i < 400; i++ {
		s.Cols[0].I = append(s.Cols[0].I, 1000+i)
		s.Cols[1].I = append(s.Cols[1].I, -i)
		s.BumpRow()
	}
	sel := []int32{5, 250, 260}
	s.SetSel(sel)
	if err := f.AppendBatch(s); err != nil {
		t.Fatal(err)
	}
	check("selected", tuple.Range{Lo: -100, Hi: 1260}, tuple.Range{Lo: -260, Hi: 7})
	if got := len(readAll(t, f, 1000)); got != 303 {
		t.Fatalf("%d rows after the appends, want 303", got)
	}

	f.Free()
	check("freed", tuple.EmptyRange, tuple.EmptyRange)
	if err := appendRows(f, []int64{3, 4}); err != nil {
		t.Fatal(err)
	}
	check("refilled", tuple.Range{Lo: 3, Hi: 3}, tuple.Range{Lo: 4, Hi: 4})
}
