package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"setm/internal/tuple"
)

// joinCase is one pair of join inputs for checkJoinKernels. Rows have the
// shape (k1, k2, v): keys picks the key columns (kinds given by the
// schemas), v is the residual column. Both sides must be sorted on their
// key columns.
type joinCase struct {
	ls, rs *tuple.Schema
	l, r   []tuple.Tuple
	keys   []int
	// sel routes both inputs through a vectorized filter (v%4 != 0), so the
	// joins see selection-vectored batches.
	sel bool
}

// joinKeyVals are the key values the generators draw from, in ascending
// order: the extremes of int64 and their neighbours around a small middle.
var joinKeyVals = []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, 3, math.MaxInt64 - 1, math.MaxInt64}

// joinRows draws n rows (k1, k2, v) over the first dom key values. The
// rows come back sorted on (k1, k2); v stays in draw order unless sortV.
func joinRows(rng *rand.Rand, n, dom int, sortV bool) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Ints(joinKeyVals[rng.Intn(dom)], joinKeyVals[rng.Intn(2)], rng.Int63n(9))
	}
	keys := []SortKey{{Col: 0}, {Col: 1}}
	if sortV {
		keys = append(keys, SortKey{Col: 2})
	}
	return refSort(rows, keys)
}

// stringKeyed rewrites the key columns cols of rows (and schema) as
// strings and re-sorts on the keys, for the non-integer key path.
func stringKeyed(rows []tuple.Tuple, cols ...int) (*tuple.Schema, []tuple.Tuple) {
	s := tuple.IntSchema("k1", "k2", "v")
	out := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
		for _, c := range cols {
			out[i][c] = tuple.S(fmt.Sprint(r[c].Int))
		}
	}
	for _, c := range cols {
		s.Cols[c].Kind = tuple.KindString
	}
	return s, refSort(out, []SortKey{{Col: 0}, {Col: 1}})
}

// checkJoinKernels runs HashJoin and MergeJoin, bare and with the v-column
// residual, over one case and compares each, row for row and in order,
// with the nested-loop reference.
// wantInt states which key path the operators must have taken.
func checkJoinKernels(t *testing.T, label string, c joinCase, wantInt bool) {
	t.Helper()
	keep := func(tp tuple.Tuple) bool { return !c.sel || tp[2].Int%4 != 0 }
	src := func(s *tuple.Schema, rows []tuple.Tuple) Operator {
		if !c.sel {
			return NewMemScan(s, rows)
		}
		vec := func(b *tuple.Batch, in, out []int32) ([]int32, error) {
			if in != nil {
				t.Fatal("selecting filter stacked on a selection")
			}
			for i, v := range b.Cols[2].I {
				if v%4 != 0 {
					out = append(out, int32(i))
				}
			}
			return out, nil
		}
		return NewFilterVec(NewMemScan(s, rows), []VecPredicate{vec}, nil)
	}
	want := refEquiJoin(refFilter(c.l, keep), refFilter(c.r, keep), c.keys, c.keys)
	gt := func(l, r tuple.Tuple) (bool, error) { return r[2].Int > l[2].Int, nil }
	wantGT := refFilter(want, func(tp tuple.Tuple) bool { return tp[5].Int > tp[2].Int })

	h := NewHashJoin(src(c.ls, c.l), src(c.rs, c.r), c.keys, c.keys, nil)
	requireSameRows(t, label+": hash join", drainRows(t, h), want)
	if h.intKeys != wantInt {
		t.Fatalf("%s: hash join took intKeys=%v", label, h.intKeys)
	}
	h = NewHashJoin(src(c.ls, c.l), src(c.rs, c.r), c.keys, c.keys, gt)
	requireSameRows(t, label+": hash join + residual", drainRows(t, h), wantGT)
	m := NewMergeJoin(src(c.ls, c.l), src(c.rs, c.r), c.keys, c.keys, nil)
	requireSameRows(t, label+": merge join", drainRows(t, m), want)
	if m.intKeys != wantInt {
		t.Fatalf("%s: merge join took intKeys=%v", label, m.intKeys)
	}
	m = NewMergeJoin(src(c.ls, c.l), src(c.rs, c.r), c.keys, c.keys, gt)
	requireSameRows(t, label+": merge join + row residual", drainRows(t, m), wantGT)
	m = NewMergeJoin(src(c.ls, c.l), src(c.rs, c.r), c.keys, c.keys, nil)
	m.SetVecResidualGT(2, 2)
	requireSameRows(t, label+": merge join + vectorized residual", drainRows(t, m), wantGT)
}

// joinKernelCases expands one pair of integer-keyed inputs into the
// schema and key variants every kernel must agree on.
func joinKernelCases(t *testing.T, label string, l, r []tuple.Tuple) {
	t.Helper()
	ints := tuple.IntSchema("k1", "k2", "v")
	for _, sel := range []bool{false, true} {
		tag := fmt.Sprintf("%s sel=%v", label, sel)
		checkJoinKernels(t, tag+" int key", joinCase{ints, ints, l, r, []int{0}, sel}, true)
		checkJoinKernels(t, tag+" int pair key", joinCase{ints, ints, l, r, []int{0, 1}, sel}, true)
		ss, sl := stringKeyed(l, 0, 1)
		_, sr := stringKeyed(r, 0, 1)
		checkJoinKernels(t, tag+" string key", joinCase{ss, ss, sl, sr, []int{0}, sel}, false)
		ms, ml := stringKeyed(l, 1)
		_, mr := stringKeyed(r, 1)
		checkJoinKernels(t, tag+" mixed key", joinCase{ms, ms, ml, mr, []int{0, 1}, sel}, false)
	}
}

// TestJoinKernelsMatchReference is the property suite of the join kernels:
// duplicate build keys, empty sides, keys at the int64 extremes, selection
// vectors, key runs longer than a batch on either side, a residual column
// both ascending within a group (the suffix fast path) and not.
func TestJoinKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		sortV := trial%2 == 0
		dom := 1 + rng.Intn(len(joinKeyVals))
		small, big := rng.Intn(12), 1100+rng.Intn(1400)
		if trial%4 == 3 {
			small = 0 // an empty side
		}
		tag := fmt.Sprintf("trial %d (dom %d, sorted v %v)", trial, dom, sortV)
		// A few long runs on one side straddle its batch boundaries; the
		// other side stays small so the reference's output stays bounded.
		joinKernelCases(t, tag+" long right runs", joinRows(rng, small, dom, sortV), joinRows(rng, big, min(dom, 3), sortV))
		joinKernelCases(t, tag+" long left runs", joinRows(rng, big, min(dom, 3), sortV), joinRows(rng, small, dom, sortV))
		joinKernelCases(t, tag+" many keys", joinRows(rng, 200, len(joinKeyVals), sortV), joinRows(rng, 200, len(joinKeyVals), sortV))
	}
}
