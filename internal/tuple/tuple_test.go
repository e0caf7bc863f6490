package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(1), 1},
		{I(5), I(5), 0},
		{I(-3), I(3), -1},
		{I(math.MinInt64), I(math.MaxInt64), -1},
		{I(math.MaxInt64), I(math.MinInt64), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(I(a), I(b)) == -Compare(I(b), I(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitiveProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		vs := []int64{a, b, c}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		return Compare(I(vs[0]), I(vs[1])) <= 0 && Compare(I(vs[1]), I(vs[2])) <= 0 &&
			Compare(I(vs[0]), I(vs[2])) <= 0
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
	if err := b.PutIntColumns(block, stride, 0, b.Len()); err != nil {
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
	in := []Tuple{Ints(42, math.MinInt64, -7), Ints(0, math.MaxInt64, 1<<40), Ints(-1, 0, 1)}
	b := NewBatch(IntSchema("id", "a", "b"))
	for _, r := range in {
		if err := b.AppendTuple(r); err != nil {
			t.Fatal(err)
		}
	}
	out := putGet(t, b, 5)
	if out.Len() != len(in) {
		t.Fatalf("decoded %d rows, want %d", out.Len(), len(in))
	}
	for i, r := range in {
		if !EqualTuples(out.Row(i), r) {
			t.Errorf("row %d = %v, want %v", i, out.Row(i), r)
		}
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
	if err := b.AppendTuple(Ints(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.PutIntColumns(make([]byte, 8*(4+1)-1), 4, 0, 1); err == nil {
		t.Error("PutIntColumns accepted a short block")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(a, c []int64) bool {
		n := min(len(a), len(c))
		b := NewBatch(IntSchema("a", "c"))
		for i := 0; i < n; i++ {
			if b.AppendTuple(Ints(a[i], c[i])) != nil {
				return false
			}
		}
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

func TestCompareAt(t *testing.T) {
	a := Ints(1, 5, 9)
	b := Ints(1, 7, 0)
	if got := CompareAt(a, b, []int{0}); got != 0 {
		t.Errorf("CompareAt col0 = %d, want 0", got)
	}
	if got := CompareAt(a, b, []int{0, 1}); got != -1 {
		t.Errorf("CompareAt cols 0,1 = %d, want -1", got)
	}
	if got := CompareAt(a, b, []int{2}); got != 1 {
		t.Errorf("CompareAt col2 = %d, want 1", got)
	}
}

func TestCompareAllPrefix(t *testing.T) {
	if got := CompareAll(Ints(1, 2), Ints(1, 2, 3)); got != -1 {
		t.Errorf("prefix should sort first, got %d", got)
	}
	if got := CompareAll(Ints(1, 2, 3), Ints(1, 2)); got != 1 {
		t.Errorf("extension should sort last, got %d", got)
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	a := Ints(1, 2, 3)
	b := a.Clone()
	b[0] = I(99)
	if a[0].Int != 1 {
		t.Error("Clone shares backing storage")
	}
}

func TestSortUsingCompareAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := make([]Tuple, 200)
	for i := range ts {
		ts[i] = Ints(rng.Int63n(10), rng.Int63n(10), rng.Int63n(10))
	}
	sort.Slice(ts, func(i, j int) bool { return CompareAll(ts[i], ts[j]) < 0 })
	for i := 1; i < len(ts); i++ {
		if CompareAll(ts[i-1], ts[i]) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, ts[i-1], ts[i])
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindString})
	if got, want := s.String(), "(a INT, b STRING)"; got != want {
		t.Errorf("Schema.String() = %q, want %q", got, want)
	}
	if got, want := (Tuple{I(1), S("x")}).String(), "[1 x]"; got != want {
		t.Errorf("Tuple.String() = %q, want %q", got, want)
	}
}
