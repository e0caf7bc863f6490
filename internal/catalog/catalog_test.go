package catalog

import (
	"reflect"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

func newCatalog() (*Catalog, *storage.Pool) {
	pool := storage.NewPool(storage.NewMemStore(), 16)
	return New(pool), pool
}

// appendRow appends one row to f.
func appendRow(f *hp.File, vals ...int64) error {
	b := tuple.NewBatch(f.Schema())
	for c, v := range vals {
		b.Cols[c].I = append(b.Cols[c].I, v)
	}
	b.BumpRow()
	return f.AppendBatch(b)
}

func TestCreateGetDrop(t *testing.T) {
	c, _ := newCatalog()
	tbl, err := c.Create("Sales", tuple.IntSchema("tid", "item"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name != "Sales" {
		t.Errorf("Name = %q", tbl.Name)
	}
	// Case-insensitive lookup.
	got, err := c.Get("SALES")
	if err != nil || got != tbl {
		t.Errorf("Get(SALES) = %v, %v", got, err)
	}
	if !c.Has("sales") {
		t.Error("Has(sales) = false")
	}
	if err := c.Drop("sAlEs"); err != nil {
		t.Fatal(err)
	}
	if c.Has("sales") {
		t.Error("table survived Drop")
	}
	if err := c.Drop("sales"); err == nil {
		t.Error("double Drop succeeded")
	}
	if _, err := c.Get("sales"); err == nil {
		t.Error("Get after Drop succeeded")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	c, _ := newCatalog()
	if _, err := c.Create("t", tuple.IntSchema("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("T", tuple.IntSchema("a")); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
}

func TestTruncateKeepsSchema(t *testing.T) {
	c, _ := newCatalog()
	tbl, err := c.Create("t", tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRow(tbl.File, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate("t"); err != nil {
		t.Fatal(err)
	}
	tbl2, _ := c.Get("t")
	if tbl2.File.Rows() != 0 {
		t.Errorf("rows after truncate = %d", tbl2.File.Rows())
	}
	if tbl2.File.Schema().Len() != 2 {
		t.Errorf("schema lost: %v", tbl2.File.Schema())
	}
	if err := c.Truncate("missing"); err == nil {
		t.Error("Truncate(missing) succeeded")
	}
}

func TestReplaceInstallsFile(t *testing.T) {
	c, pool := newCatalog()
	f, err := hp.Create(pool, tuple.IntSchema("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRow(f, 9); err != nil {
		t.Fatal(err)
	}
	// Replace creates the entry when absent...
	c.Replace("r2", f)
	got, err := c.Get("r2")
	if err != nil || got.File.Rows() != 1 {
		t.Fatalf("Replace-create failed: %v, %v", got, err)
	}
	// ...and swaps the file when present.
	f2, _ := hp.Create(pool, tuple.IntSchema("x"))
	c.Replace("R2", f2)
	got, _ = c.Get("r2")
	if got.File != f2 {
		t.Error("Replace did not swap file")
	}
}

func TestNamesSorted(t *testing.T) {
	c, _ := newCatalog()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.Create(n, tuple.IntSchema("a")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Names(), []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
}

// TestTruncateAndReplaceResetRanges: a truncated table and a replaced one
// bound their columns by their own rows only, not the rows they replaced.
func TestTruncateAndReplaceResetRanges(t *testing.T) {
	c, pool := newCatalog()
	tbl, err := c.Create("t", tuple.IntSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRow(tbl.File, -50); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate("t"); err != nil {
		t.Fatal(err)
	}
	if r := tbl.File.Ranges()[0]; r != tuple.EmptyRange {
		t.Fatalf("range after TRUNCATE = %+v, want empty", r)
	}
	if err := appendRow(tbl.File, 9); err != nil {
		t.Fatal(err)
	}
	f, err := hp.Create(pool, tuple.IntSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRow(f, 2); err != nil {
		t.Fatal(err)
	}
	c.Replace("t", f)
	if r := tbl.File.Ranges()[0]; r != (tuple.Range{Lo: 2, Hi: 2}) {
		t.Fatalf("range after Replace = %+v, want [2, 2]", r)
	}
}
