package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"setm/internal/tuple"
)

// exactRanges is the bound of each of rows' columns cols.
func exactRanges(rows [][]int64, cols []int) []tuple.Range {
	out := make([]tuple.Range, len(cols))
	for i, c := range cols {
		out[i] = tuple.EmptyRange
		for _, r := range rows {
			out[i].Lo, out[i].Hi = min(out[i].Lo, r[c]), max(out[i].Hi, r[c])
		}
	}
	return out
}

// widen returns ranges grown by lo below and hi above, saturating: a
// strict superset of the data, as a planner's bound may be.
func widen(ranges []tuple.Range, lo, hi int64) []tuple.Range {
	out := make([]tuple.Range, len(ranges))
	for i, r := range ranges {
		out[i] = r
		if r.Lo > r.Hi {
			continue
		}
		if r.Lo >= math.MinInt64+lo {
			out[i].Lo = r.Lo - lo
		}
		if r.Hi <= math.MaxInt64-hi {
			out[i].Hi = r.Hi + hi
		}
	}
	return out
}

// countSrc streams rows, through a filter keeping v%3 != 0 when sel.
func countSrc(schema *tuple.Schema, rows [][]int64, sel bool) Operator {
	if !sel {
		return NewMemScan(schema, rows)
	}
	return NewFilter(NewMemScan(schema, rows), []VecPredicate{rowPred(func(r []int64) bool { return r[2]%3 != 0 })})
}

// checkPackedCount runs HashGroup over (a, b, v) rows on group columns
// (a, b) with the given bounds and checks it against the generic hash
// table (no bounds) and the sort reference, row for row and in order, and
// that the kernel that ran is want.
func checkPackedCount(t *testing.T, label string, rows [][]int64, ranges []tuple.Range, sel bool, want string) {
	t.Helper()
	s := tuple.IntSchema("a", "b", "v")
	group, count := []int{0, 1}, []AggSpec{{Kind: AggCount, Name: "cnt"}}
	kept := rows
	if sel {
		kept = refFilter(rows, func(r []int64) bool { return r[2]%3 != 0 })
	}
	ref := refGroupCount(refSort(kept, []SortKey{{Col: 0}, {Col: 1}}), group)

	generic := NewHashGroup(countSrc(s, rows, sel), group, count)
	requireSameRows(t, label+": generic", drainRows(t, generic), ref)
	if generic.Kernel() != CountHash {
		t.Fatalf("%s: generic group ran %q", label, generic.Kernel())
	}
	for _, hint := range []int64{0, int64(len(rows))} {
		g := NewHashGroup(countSrc(s, rows, sel), group, count)
		g.SetKeyRanges(ranges)
		g.SetSizeHint(hint)
		requireSameRows(t, fmt.Sprintf("%s: packed, hint %d", label, hint), drainRows(t, g), ref)
		if k := g.KernelFor(hint); g.Kernel() != k || (hint > 0 && k != want) {
			t.Fatalf("%s: hint %d ran %q, KernelFor says %q, want %q", label, hint, g.Kernel(), k, want)
		}
	}
}

// TestPackedCountMatchesGeneric: the packed count kernels emit what the
// generic hash table emits, on random keys with negative values, at a key
// width of exactly 64 bits and at 65 (the fallback), on empty and
// selection-vectored inputs, and under bounds strictly wider than the data.
func TestPackedCountMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	draw := func(n int, a, b func() int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{a(), b(), rng.Int63n(100)}
		}
		return rows
	}
	small := func() int64 { return rng.Int63n(40) - 20 }
	// 32 + 32 bits: a spans [0, 2^32-1], b spans [-2^31, 2^31-1].
	a32 := func() int64 { return []int64{0, 1 << 31, 1<<32 - 1}[rng.Intn(3)] }
	b32 := func() int64 { return []int64{math.MinInt32, -1, math.MaxInt32}[rng.Intn(3)] }
	for _, sel := range []bool{false, true} {
		tag := fmt.Sprintf("sel=%v", sel)
		rows := draw(3000, small, small)
		checkPackedCount(t, tag+" small", rows, exactRanges(rows, []int{0, 1}), sel, CountTable)
		checkPackedCount(t, tag+" small, wider bound", rows, widen(exactRanges(rows, []int{0, 1}), 1000, 7), sel, CountSort)
		checkPackedCount(t, tag+" empty", nil, exactRanges(nil, []int{0, 1}), sel, CountTable)

		rows = draw(500, a32, b32)
		r64 := exactRanges(rows, []int{0, 1})
		if p, ok := newKeyPack(r64); !ok || p.bits != 64 {
			t.Fatalf("setup: key is %d bits, want 64", p.bits)
		}
		checkPackedCount(t, tag+" 64 bits", rows, r64, sel, CountSort)
		r65 := widen(r64, 0, 1<<32) // b needs 33 bits
		g := NewHashGroup(NewMemScan(tuple.IntSchema("a", "b", "v"), rows), []int{0, 1}, []AggSpec{{Kind: AggCount}})
		if g.SetKeyRanges(r65); g.KernelFor(int64(len(rows))) != CountHash {
			t.Fatalf("a 65-bit key did not fall back to the generic table")
		}
		checkPackedCount(t, tag+" 65 bits", rows, r65, sel, CountHash)
	}

	// A bound narrower than the data is refused, never miscounted.
	rows := draw(100, small, small)
	g := NewHashGroup(NewMemScan(tuple.IntSchema("a", "b", "v"), rows), []int{0, 1}, []AggSpec{{Kind: AggCount}})
	g.SetKeyRanges([]tuple.Range{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}})
	if _, err := Drain(g); err == nil {
		t.Fatal("a group key outside its bound was counted")
	}
}

// checkPackedProbe joins l and r on (k1, k2) and checks the hash join
// against the nested-loop reference, the kernel that ran against want, and
// with SetProbeOnly the probe rows a semi-join keeps.
func checkPackedProbe(t *testing.T, label string, l, r [][]int64, sel bool, want string) {
	t.Helper()
	s := tuple.IntSchema("k1", "k2", "v")
	keep := func(tp []int64) bool { return !sel || tp[2]%4 != 0 }
	src := func(rows [][]int64) Operator {
		if !sel {
			return NewMemScan(s, rows)
		}
		return NewFilter(NewMemScan(s, rows), []VecPredicate{rowPred(keep)})
	}
	keys := []int{0, 1}
	ref := refEquiJoin(refFilter(l, keep), refFilter(r, keep), keys, keys)
	h := NewHashJoin(src(l), src(r), keys, keys)
	requireSameRows(t, label, drainRows(t, h), ref)
	if h.Kernel() != want {
		t.Fatalf("%s: ran %q, want %q", label, h.Kernel(), want)
	}

	h = NewHashJoin(src(l), src(r), keys, keys)
	h.SetProbeOnly()
	got := drainRows(t, h)
	if h.Kernel() == ProbeSemi {
		// The build columns of a semi-join's output are not read.
		for i := range got {
			got[i] = got[i][:3]
		}
		for i := range ref {
			ref[i] = ref[i][:3]
		}
	}
	requireSameRows(t, label+", probe only", got, ref)
	unique := true
	seen := map[[2]int64]bool{}
	for _, tp := range refFilter(r, keep) {
		k := [2]int64{tp[0], tp[1]}
		unique = unique && !seen[k]
		seen[k] = true
	}
	if semi := h.Kernel() == ProbeSemi; semi != (unique && want != ProbeGeneric) {
		t.Fatalf("%s, probe only: ran %q with unique build keys %v", label, h.Kernel(), unique)
	}
}

// TestPackedProbeMatchesReference: the packed probe kernels — direct,
// hashed, and the semi-join — join exactly as the nested-loop reference
// does, on random keys with negative values, with duplicate build keys
// (where no semi-join may fire), at 64 and 65 bits of key, on empty and
// selection-vectored sides.
func TestPackedProbeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	draw := func(n int, k1, k2 func() int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{k1(), k2(), rng.Int63n(9)}
		}
		return rows
	}
	uniq := func(rows [][]int64) [][]int64 {
		seen := map[[2]int64]bool{}
		var out [][]int64
		for _, r := range rows {
			if k := [2]int64{r[0], r[1]}; !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out
	}
	small := func() int64 { return rng.Int63n(16) - 8 }
	wide := func() int64 { return rng.Int63n(1<<40) - 1<<39 }
	full := func() int64 { return []int64{math.MinInt64, -1, 0, math.MaxInt64}[rng.Intn(4)] }
	for _, sel := range []bool{false, true} {
		tag := fmt.Sprintf("sel=%v", sel)
		probe := draw(2500, small, small)
		checkPackedProbe(t, tag+" direct, duplicates", probe, draw(40, small, small), sel, ProbeDirect)
		checkPackedProbe(t, tag+" direct, unique", probe, uniq(draw(40, small, small)), sel, ProbeDirect)
		checkPackedProbe(t, tag+" empty build", probe, nil, sel, ProbeDirect)
		checkPackedProbe(t, tag+" empty probe", nil, draw(40, small, small), sel, ProbeDirect)

		build := uniq(draw(60, wide, small))
		probe = append(draw(1500, wide, small), build...) // some probes hit
		checkPackedProbe(t, tag+" hash, unique", probe, build, sel, ProbeHash)
		checkPackedProbe(t, tag+" hash, duplicates", probe, append(build, build[:10]...), sel, ProbeHash)

		// k1 spans 64 bits alone: a 64-bit key while k2 is constant, a
		// 65-bit key (the generic fallback) once k2 takes two values.
		build = uniq(draw(30, full, func() int64 { return 7 }))
		probe = append(draw(300, full, func() int64 { return 7 }), build...)
		checkPackedProbe(t, tag+" 64 bits", probe, build, sel, ProbeHash)
		build = uniq(draw(30, full, func() int64 { return 6 + rng.Int63n(2) }))
		probe = append(draw(300, full, func() int64 { return 6 + rng.Int63n(2) }), build...)
		checkPackedProbe(t, tag+" 65 bits", probe, build, sel, ProbeGeneric)
	}
}
