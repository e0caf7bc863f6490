package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// ints builds a batch of the given rows under an all-INT schema with one
// column per value.
func ints(rows ...[]int64) *Batch {
	names := make([]string, len(rows[0]))
	for c := range names {
		names[c] = string(rune('a' + c))
	}
	b := NewBatch(IntSchema(names...))
	for _, r := range rows {
		for c, v := range r {
			b.Cols[c].I = append(b.Cols[c].I, v)
		}
		b.BumpRow()
	}
	return b
}

// compare orders two integers through CompareRows, the one row comparator.
func compare(x, y int64) int {
	b := ints([]int64{x}, []int64{y})
	return b.CompareRows(0, b, 1, []int{0}, []int{0}, nil)
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b int64
		want int
	}{
		{1, 2, -1},
		{2, 1, 1},
		{5, 5, 0},
		{-3, 3, -1},
		{math.MinInt64, math.MaxInt64, -1},
		{math.MaxInt64, math.MinInt64, 1},
	}
	for _, c := range cases {
		if got := compare(c.a, c.b); got != c.want {
			t.Errorf("compare(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return compare(a, b) == -compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitiveProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		vs := []int64{a, b, c}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		return compare(vs[0], vs[1]) <= 0 && compare(vs[1], vs[2]) <= 0 &&
			compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := IntSchema("trans_id", "item")
	if got := s.ColIndex("item"); got != 1 {
		t.Errorf("ColIndex(item) = %d, want 1", got)
	}
	if got := s.ColIndex("ITEM"); got != 1 {
		t.Errorf("ColIndex is case-sensitive; got %d, want 1", got)
	}
	if got := s.ColIndex("missing"); got != -1 {
		t.Errorf("ColIndex(missing) = %d, want -1", got)
	}
}

func TestSchemaProjectConcat(t *testing.T) {
	s := IntSchema("a", "b", "c")
	p := s.Project([]int{2, 0})
	if want := []string{"c", "a"}; !reflect.DeepEqual(p.Names(), want) {
		t.Errorf("Project names = %v, want %v", p.Names(), want)
	}
	q := s.Concat(IntSchema("d"))
	if q.Len() != 4 || q.Cols[3].Name != "d" {
		t.Errorf("Concat got %v", q.Names())
	}
	if s.Len() != 3 {
		t.Errorf("Concat mutated receiver: %v", s.Names())
	}
}

// putGet writes the logical rows of b into a column-major block with the
// given stride (rows per page) and decodes them into a fresh batch.
func putGet(t *testing.T, b *Batch, stride int) *Batch {
	t.Helper()
	block := make([]byte, 8*stride*len(b.Cols))
	if err := b.PutIntColumns(block, stride, 0, b.Len(), nil); err != nil {
		t.Fatal(err)
	}
	out := NewBatch(b.Schema())
	if err := out.AppendIntColumns(block, stride, b.Len()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEncodeDecodeRoundTrip: the page codec returns every value, the int64
// extremes included, in its row and column.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := ints([]int64{42, math.MinInt64, -7}, []int64{0, math.MaxInt64, 1 << 40}, []int64{-1, 0, 1})
	out := putGet(t, b, 5)
	if out.Len() != b.Len() {
		t.Fatalf("decoded %d rows, want %d", out.Len(), b.Len())
	}
	if !reflect.DeepEqual(out.Cols, b.Cols) {
		t.Errorf("decoded %v, want %v", out.Cols, b.Cols)
	}
}

// TestDecodeShortBuffer: a block too short for the rows asked of it is
// refused on both sides of the codec.
func TestDecodeShortBuffer(t *testing.T) {
	b := NewBatch(IntSchema("a", "b"))
	if err := b.AppendIntColumns(make([]byte, 8*(4+3)-1), 4, 3); err == nil {
		t.Error("AppendIntColumns accepted a short block")
	}
	if b.Len() != 0 {
		t.Errorf("a refused decode appended %d rows", b.Len())
	}
	b = ints([]int64{1, 2})
	if err := b.PutIntColumns(make([]byte, 8*(4+1)-1), 4, 0, 1, nil); err == nil {
		t.Error("PutIntColumns accepted a short block")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(a, c []int64) bool {
		n := min(len(a), len(c))
		b := NewBatch(IntSchema("a", "c"))
		b.Cols[0].I, b.Cols[1].I = a[:n], c[:n]
		b.BumpRows(n)
		out := putGet(t, b, n+1)
		for i := 0; i < n; i++ {
			if out.Cols[0].I[i] != a[i] || out.Cols[1].I[i] != c[i] {
				return false
			}
		}
		return out.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareAt: CompareRows orders on the key columns it is given and no
// others.
func TestCompareAt(t *testing.T) {
	b := ints([]int64{1, 5, 9}, []int64{1, 7, 0})
	if got := b.CompareRows(0, b, 1, []int{0}, []int{0}, nil); got != 0 {
		t.Errorf("CompareRows col0 = %d, want 0", got)
	}
	if got := b.CompareRows(0, b, 1, []int{0, 1}, []int{0, 1}, nil); got != -1 {
		t.Errorf("CompareRows cols 0,1 = %d, want -1", got)
	}
	if got := b.CompareRows(0, b, 1, []int{2}, []int{2}, nil); got != 1 {
		t.Errorf("CompareRows col2 = %d, want 1", got)
	}
}

// TestTupleCloneIndependence: a dense batch's Clone shares no storage.
func TestTupleCloneIndependence(t *testing.T) {
	a := ints([]int64{1, 2, 3})
	b := a.Clone()
	b.Cols[0].I[0] = 99
	if a.Cols[0].I[0] != 1 {
		t.Error("Clone shares backing storage")
	}
}

// TestSortUsingCompareAll: a permutation sorted with CompareRows over every
// column orders the batch lexicographically.
func TestSortUsingCompareAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, 200)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(10), rng.Int63n(10), rng.Int63n(10)}
	}
	b := ints(rows...)
	all := []int{0, 1, 2}
	perm := make([]int32, b.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(i, j int) bool { return b.CompareRows(int(perm[i]), b, int(perm[j]), all, all, nil) < 0 })
	b.SetSel(perm)
	for i := 1; i < b.Len(); i++ {
		if b.CompareRows(i-1, b, i, all, all, nil) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, rows[perm[i-1]], rows[perm[i]])
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindInt})
	if got, want := s.String(), "(a INT, b INT)"; got != want {
		t.Errorf("Schema.String() = %q, want %q", got, want)
	}
	if got, want := Kind(1).String(), "Kind(1)"; got != want {
		t.Errorf("Kind(1).String() = %q, want %q", got, want)
	}
}
