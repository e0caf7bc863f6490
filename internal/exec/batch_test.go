package exec

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"setm/internal/tuple"
)

// ---------------------------------------------------------------------------
// Row-at-a-time reference implementations. The batch operators are checked
// against these simple oracles on randomized inputs; the oracles compute
// the same relational operations directly over [][]int64.

func refSort(rows [][]int64, keys []SortKey) [][]int64 {
	out := append([][]int64{}, rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			c := cmp.Compare(out[i][k.Col], out[j][k.Col])
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return out
}

func refFilter(rows [][]int64, keep func([]int64) bool) [][]int64 {
	var out [][]int64
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func refEquiJoin(l, r [][]int64, lk, rk []int) [][]int64 {
	var out [][]int64
	for _, lt := range l {
		for _, rt := range r {
			match := true
			for i := range lk {
				if lt[lk[i]] != rt[rk[i]] {
					match = false
					break
				}
			}
			if match {
				row := append(append([]int64{}, lt...), rt...)
				out = append(out, row)
			}
		}
	}
	return out
}

func refGroupCount(rows [][]int64, groupCols []int) [][]int64 {
	// rows must be sorted on groupCols; emits (group..., count) per run.
	var out [][]int64
	var cur []int64
	var n int64
	flush := func() {
		if cur != nil {
			row := make([]int64, 0, len(groupCols)+1)
			for _, gc := range groupCols {
				row = append(row, cur[gc])
			}
			out = append(out, append(row, n))
		}
	}
	for _, r := range rows {
		if cur != nil && sameKeys(cur, r, groupCols) {
			n++
			continue
		}
		flush()
		cur, n = r, 1
	}
	flush()
	return out
}

// sameKeys reports whether a and b agree on the columns cols.
func sameKeys(a, b []int64, cols []int) bool {
	for _, c := range cols {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// drainRows is Drain, failing the test on error.
func drainRows(t testing.TB, op Operator) [][]int64 {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func requireSameRows(t testing.TB, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func randRows(rng *rand.Rand, n, arity int, domain int64) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		vals := make([]int64, arity)
		for j := range vals {
			vals[j] = rng.Int63n(domain)
		}
		rows[i] = vals
	}
	return rows
}

// TestOperatorsMatchRowReference cross-checks the operators against the
// row-at-a-time reference on randomized inputs.
func TestOperatorsMatchRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(2500) // spans multiple batches
		rows := randRows(rng, n, 3, 8)
		schema := tuple.IntSchema("a", "b", "c")

		// Sort (asc and desc keys).
		keys := []SortKey{{Col: 1}, {Col: 0, Desc: trial%2 == 0}}
		got := drainRows(t, NewSortKeys(NewMemScan(schema, rows), keys, nil, 0))
		requireSameRows(t, "sort", got, refSort(rows, keys))

		// Filter: two conjuncts, the second seeing only the first's rows.
		aAtLeast3 := func(tp []int64) bool { return tp[0] >= 3 }
		bNotC := func(tp []int64) bool { return tp[1] != tp[2] }
		filtered := func() Operator {
			return NewFilter(NewMemScan(schema, rows), []VecPredicate{rowPred(aAtLeast3), rowPred(bNotC)})
		}
		wantFiltered := refFilter(rows, func(tp []int64) bool { return aAtLeast3(tp) && bNotC(tp) })
		requireSameRows(t, "filter", drainRows(t, filtered()), wantFiltered)

		// Project: column references only (reorder + duplicate a column),
		// over a selection-vectored input, plus a computed column.
		sum := func(b *tuple.Batch, sel []int32, out []int64) ([]int64, error) {
			if sel == nil {
				t.Fatal("a filtered batch reached the projection without its selection")
			}
			for _, phys := range sel {
				out[phys] = b.Cols[1].I[phys] + b.Cols[2].I[phys]
			}
			return out, nil
		}
		got = drainRows(t, NewProject(filtered(), tuple.IntSchema("c", "a", "a2", "b+c"),
			[]Expr{ColExpr(2), ColExpr(0), ColExpr(0), sum}))
		want := make([][]int64, len(wantFiltered))
		for i, r := range wantFiltered {
			want[i] = []int64{r[2], r[0], r[0], r[1] + r[2]}
		}
		requireSameRows(t, "project", got, want)

		// Joins: merge vs hash vs reference, on sorted keys.
		lrows := refSort(randRows(rng, rng.Intn(400), 2, 6), []SortKey{{Col: 0}, {Col: 1}})
		rrows := refSort(randRows(rng, rng.Intn(400), 2, 6), []SortKey{{Col: 0}, {Col: 1}})
		js := tuple.IntSchema("k", "v")
		wantJoin := refEquiJoin(lrows, rrows, []int{0}, []int{0})
		canon := func(rows [][]int64) {
			sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
		}
		canon(wantJoin)
		for _, jc := range []struct {
			name string
			op   Operator
		}{
			{"merge-join", NewMergeJoin(NewMemScan(js, lrows), NewMemScan(js, rrows), []int{0}, []int{0})},
			{"hash-join", NewHashJoin(NewMemScan(js, lrows), NewMemScan(js, rrows), []int{0}, []int{0})},
		} {
			got := drainRows(t, jc.op)
			canon(got)
			requireSameRows(t, jc.name, got, wantJoin)
		}

		// SortGroup COUNT(*) over sorted input.
		grouped := refSort(rows, []SortKey{{Col: 0}, {Col: 1}})
		got = drainRows(t, NewSortGroup(NewMemScan(schema, grouped), []int{0, 1},
			[]AggSpec{{Kind: AggCount, Name: "cnt"}}))
		requireSameRows(t, "sortgroup", got, refGroupCount(grouped, []int{0, 1}))
	}
}

// FuzzExecBatch mirrors FuzzPackedKernels for the executor: arbitrary
// bytes become rows and operator parameters; the batched sort → merge-join
// → group pipeline, the packed count and semi-join, and the join kernels
// on every key path, must match the row-oriented reference oracles
// exactly.
func FuzzExecBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(0), uint8(1))
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 4, 5}, uint8(2), uint8(2))
	f.Add([]byte{255, 255, 1, 1, 128}, uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, keyByte, splitByte uint8) {
		const maxBytes = 512
		if len(data) > maxBytes {
			data = data[:maxBytes]
		}
		// Decode rows of arity 2 from the byte stream, small domain so
		// joins and groups actually collide.
		var rows [][]int64
		for i := 0; i+1 < len(data); i += 2 {
			rows = append(rows, []int64{int64(data[i] % 16), int64(data[i+1] % 16)})
		}
		schema := tuple.IntSchema("k", "v")
		keyCol := int(keyByte) % 2
		keys := []SortKey{{Col: keyCol}, {Col: 1 - keyCol}}

		// Sort.
		got := drainRows(t, NewSortKeys(NewMemScan(schema, rows), keys, nil, 0))
		requireSameRows(t, "fuzz sort", got, refSort(rows, keys))

		// Split into two sorted relations and merge-join on the key column.
		split := int(splitByte) % (len(rows) + 1)
		l := refSort(rows[:split], []SortKey{{Col: 0}, {Col: 1}})
		r := refSort(rows[split:], []SortKey{{Col: 0}, {Col: 1}})
		want := refEquiJoin(l, r, []int{0}, []int{0})
		canon := func(rows [][]int64) {
			sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
		}
		canon(want)
		gotJ := drainRows(t, NewMergeJoin(NewMemScan(schema, l), NewMemScan(schema, r),
			[]int{0}, []int{0}))
		canon(gotJ)
		requireSameRows(t, "fuzz merge-join", gotJ, want)
		gotH := drainRows(t, NewHashJoin(NewMemScan(schema, l), NewMemScan(schema, r),
			[]int{0}, []int{0}))
		canon(gotH)
		requireSameRows(t, "fuzz hash-join", gotH, want)

		// Group-count the sorted stream.
		sorted := refSort(rows, []SortKey{{Col: 0}, {Col: 1}})
		gotG := drainRows(t, NewSortGroup(NewMemScan(schema, sorted), []int{0, 1},
			[]AggSpec{{Kind: AggCount, Name: "cnt"}}))
		requireSameRows(t, "fuzz group", gotG, refGroupCount(sorted, []int{0, 1}))

		// The packed count under exact and widened bounds, and the packed
		// probe as a semi-join on unique build keys (r's distinct keys).
		exact := exactRanges(rows, []int{0, 1})
		for _, bound := range [][]tuple.Range{exact, widen(exact, int64(keyByte), int64(splitByte)<<20)} {
			g := NewHashGroup(NewMemScan(schema, rows), []int{0, 1}, []AggSpec{{Kind: AggCount, Name: "cnt"}})
			g.SetKeyRanges(bound)
			g.SetSizeHint(int64(len(rows)))
			requireSameRows(t, "fuzz packed group", drainRows(t, g), refGroupCount(sorted, []int{0, 1}))
		}
		distinct := refGroupCount(r, []int{0})
		semi := NewHashJoin(NewMemScan(schema, l), NewMemScan(schema, distinct), []int{0}, []int{0})
		semi.SetProbeOnly()
		gotS := drainRows(t, semi)
		for i := range gotS {
			gotS[i] = gotS[i][:2]
		}
		inR := func(tp []int64) bool {
			return slices.ContainsFunc(distinct, func(d []int64) bool { return d[0] == tp[0] })
		}
		requireSameRows(t, "fuzz semi-join", gotS, refFilter(l, inR))

		// The join kernels, on one and two key columns, dense and selection-
		// vectored, on (k1, k2, v) rows whose keys reach the int64 extremes.
		var wide [][]int64
		for i := 0; i+2 < len(data); i += 3 {
			wide = append(wide, []int64{joinKeyVals[int(data[i])%len(joinKeyVals)],
				joinKeyVals[data[i+1]%2], int64(data[i+2] % 9)})
		}
		split = int(splitByte) % (len(wide) + 1)
		wideKeys := []SortKey{{Col: 0}, {Col: 1}}
		if keyByte%2 == 0 {
			wideKeys = append(wideKeys, SortKey{Col: 2}) // residual column ascending within a group
		}
		joinKernelCases(t, "fuzz", refSort(wide[:split], wideKeys), refSort(wide[split:], wideKeys))
	})
}
