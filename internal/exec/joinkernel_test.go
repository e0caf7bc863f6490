package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"setm/internal/tuple"
)

// joinCase is one pair of join inputs for checkJoinKernels. Rows have the
// shape (k1, k2, v): keys picks the key columns, v is the residual column.
// Both sides must be sorted on their key columns.
type joinCase struct {
	l, r [][]int64
	keys []int
	// sel routes both inputs through a vectorized filter (v%4 != 0), so the
	// joins see selection-vectored batches.
	sel bool
}

// joinKeyVals are the key values the generators draw from, in ascending
// order: the extremes of int64 and their neighbours around a small middle.
var joinKeyVals = []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, 3, math.MaxInt64 - 1, math.MaxInt64}

// joinRows draws n rows (k1, k2, v) over the first dom key values. The
// rows come back sorted on (k1, k2); v stays in draw order unless sortV.
func joinRows(rng *rand.Rand, n, dom int, sortV bool) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{joinKeyVals[rng.Intn(dom)], joinKeyVals[rng.Intn(2)], rng.Int63n(9)}
	}
	keys := []SortKey{{Col: 0}, {Col: 1}}
	if sortV {
		keys = append(keys, SortKey{Col: 2})
	}
	return refSort(rows, keys)
}

// checkJoinKernels runs HashJoin and MergeJoin, the merge join also with
// the vectorized v-column residual, over one case and compares each, row
// for row and in order, with the nested-loop reference.
func checkJoinKernels(t *testing.T, label string, c joinCase) {
	t.Helper()
	s := tuple.IntSchema("k1", "k2", "v")
	keep := func(tp []int64) bool { return !c.sel || tp[2]%4 != 0 }
	src := func(rows [][]int64) Operator {
		if !c.sel {
			return NewMemScan(s, rows)
		}
		return NewFilter(NewMemScan(s, rows), []VecPredicate{rowPred(keep)})
	}
	want := refEquiJoin(refFilter(c.l, keep), refFilter(c.r, keep), c.keys, c.keys)
	wantGT := refFilter(want, func(tp []int64) bool { return tp[5] > tp[2] })

	h := NewHashJoin(src(c.l), src(c.r), c.keys, c.keys)
	requireSameRows(t, label+": hash join", drainRows(t, h), want)
	m := NewMergeJoin(src(c.l), src(c.r), c.keys, c.keys)
	requireSameRows(t, label+": merge join", drainRows(t, m), want)
	m = NewMergeJoin(src(c.l), src(c.r), c.keys, c.keys)
	m.SetVecResidualGT(2, 2)
	requireSameRows(t, label+": merge join + vectorized residual", drainRows(t, m), wantGT)
}

// joinKernelCases expands one pair of inputs into the key and selection
// variants every kernel must agree on.
func joinKernelCases(t *testing.T, label string, l, r [][]int64) {
	t.Helper()
	for _, sel := range []bool{false, true} {
		tag := fmt.Sprintf("%s sel=%v", label, sel)
		checkJoinKernels(t, tag+" key", joinCase{l, r, []int{0}, sel})
		checkJoinKernels(t, tag+" pair key", joinCase{l, r, []int{0, 1}, sel})
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
