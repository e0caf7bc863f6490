package costmodel

import (
	"math"
	"strings"
	"testing"
)

// TestNestedLoopAnalysis pins every number of Section 3.2.
func TestNestedLoopAnalysis(t *testing.T) {
	r := NestedLoopAnalysis(PaperWorkload(), PaperDBParams(), 0.005)

	// "The number of leaf pages in the B+-tree index on (item, trans-id)
	// is 2,000,000/500 ≈ 4,000."
	if r.ItemTid.EntriesPerLeaf != 500 {
		t.Errorf("entries per leaf = %d, want 500", r.ItemTid.EntriesPerLeaf)
	}
	if r.ItemTid.LeafPages != 4000 {
		t.Errorf("(item,tid) leaf pages = %d, want 4000", r.ItemTid.LeafPages)
	}
	// "we can store about 333 key-value/pointer pairs on a non-leaf page"
	if r.ItemTid.EntriesPerNonLeaf != 333 {
		t.Errorf("non-leaf fanout = %d, want 333", r.ItemTid.EntriesPerNonLeaf)
	}
	// "hence, L = 3" and "the number of non-leaf pages is 1 + 4,000/333 = 14"
	if r.ItemTid.Levels != 3 {
		t.Errorf("levels = %d, want 3", r.ItemTid.Levels)
	}
	if r.ItemTid.NonLeafPages != 14 {
		t.Errorf("(item,tid) non-leaf pages = %d, want 14", r.ItemTid.NonLeafPages)
	}
	// "the number of leaf pages is 2,000 and the number of non-leaf pages
	// is 5" for the (trans-id) index.
	if r.Tid.LeafPages != 2000 {
		t.Errorf("(tid) leaf pages = %d, want 2000", r.Tid.LeafPages)
	}
	if r.Tid.NonLeafPages != 5 {
		t.Errorf("(tid) non-leaf pages = %d, want 5", r.Tid.NonLeafPages)
	}
	// "the cardinality of C1 will be 1000"
	if r.C1Size != 1000 {
		t.Errorf("|C1| = %d, want 1000", r.C1Size)
	}
	// "1% × 4,000 leaf page fetches, i.e. ≈40" and "about 2,000
	// transaction-ids"
	if r.LeafFetchesPerC1Tuple != 40 {
		t.Errorf("leaf fetches per tuple = %d, want 40", r.LeafFetchesPerC1Tuple)
	}
	if r.TidFetchesPerC1Tuple != 2000 {
		t.Errorf("tid fetches per tuple = %d, want 2000", r.TidFetchesPerC1Tuple)
	}
	// "about 1000 × (40 + 2000 × 1) ≈ 2,000,000 page fetches"
	if r.TotalFetches != 2040000 {
		t.Errorf("total fetches = %d, want 2,040,000", r.TotalFetches)
	}
	if math.Abs(float64(r.TotalFetches)-2e6) > 0.05*2e6 {
		t.Errorf("total fetches %d not ≈2,000,000", r.TotalFetches)
	}
	// "the time for the first step alone is ≈40,000 seconds, which is more
	// than 11 hours"
	if math.Abs(r.Seconds-40800) > 1 {
		t.Errorf("seconds = %.0f, want 40,800", r.Seconds)
	}
	if r.Seconds/3600 < 11 {
		t.Errorf("%.1f hours, want > 11", r.Seconds/3600)
	}
}

// TestSortMergeAnalysis pins every number of Section 4.3.
func TestSortMergeAnalysis(t *testing.T) {
	w, p := PaperWorkload(), PaperDBParams()

	// "|R_i| is given by C(10,i) × 200,000"
	if got := w.RTuples(1); got != 2000000 {
		t.Errorf("|R_1| = %d, want 2,000,000", got)
	}
	if got := w.RTuples(2); got != 9000000 {
		t.Errorf("|R_2| = %d, want 9,000,000 (45 × 200,000)", got)
	}
	// "‖R_1‖ = 4,000 and ‖R_2‖ = 27,000"
	if got := RPages(w, p, 1); got != 4000 {
		t.Errorf("‖R_1‖ = %d, want 4,000", got)
	}
	if got := RPages(w, p, 2); got != 27000 {
		t.Errorf("‖R_2‖ = %d, want 27,000", got)
	}

	r := SortMergeAnalysis(w, p, 3)
	// "3 × 4,000 + 4 × 27,000 = 120,000"
	if r.HeadlineAccesses != 120000 {
		t.Errorf("headline accesses = %d, want 120,000", r.HeadlineAccesses)
	}
	// The text's formula itself evaluates to 116,000 (see report docs).
	if r.FormulaAccesses != 116000 {
		t.Errorf("formula accesses = %d, want 116,000", r.FormulaAccesses)
	}
	// "the total time spent on I/O operations is 1200 seconds or 10 minutes"
	if math.Abs(r.Seconds-1200) > 1 {
		t.Errorf("seconds = %.0f, want 1,200", r.Seconds)
	}
	// "In comparison, the nested-loop strategy required more than 11 hours"
	// — the modelled speedup is 40,800/1,200 = 34×.
	if r.SpeedupVsNestedLoop < 30 {
		t.Errorf("speedup = %.0f, want ≥ 30", r.SpeedupVsNestedLoop)
	}
}

func TestBTreeShapeSmall(t *testing.T) {
	p := PaperDBParams()
	// A tree that fits in one leaf has no non-leaf pages and 1 level.
	s := BTreeShape(100, 8, p)
	if s.LeafPages != 1 || s.NonLeafPages != 0 || s.Levels != 1 {
		t.Errorf("small shape = %+v", s)
	}
	// Two leaves need a root.
	s = BTreeShape(600, 8, p)
	if s.LeafPages != 2 || s.NonLeafPages != 1 || s.Levels != 2 {
		t.Errorf("two-leaf shape = %+v", s)
	}
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{10, 1, 10}, {10, 2, 45}, {10, 3, 120}, {10, 10, 1}, {10, 0, 1},
		{10, 11, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestHighSupportEmptiesC1(t *testing.T) {
	// With minimum support above the uniform item probability, no item
	// qualifies and the nested-loop cost collapses to zero.
	r := NestedLoopAnalysis(PaperWorkload(), PaperDBParams(), 0.02)
	if r.C1Size != 0 || r.TotalFetches != 0 {
		t.Errorf("C1 = %d, fetches = %d; want 0, 0", r.C1Size, r.TotalFetches)
	}
}

func TestReportsRender(t *testing.T) {
	nl := NestedLoopAnalysis(PaperWorkload(), PaperDBParams(), 0.005)
	sm := SortMergeAnalysis(PaperWorkload(), PaperDBParams(), 3)
	for _, s := range []string{nl.String(), sm.String()} {
		if len(s) == 0 {
			t.Error("empty report")
		}
	}
	if !strings.Contains(nl.String(), "2040000") {
		t.Errorf("nested-loop report missing total: %s", nl.String())
	}
	if !strings.Contains(sm.String(), "120000") {
		t.Errorf("sort-merge report missing headline: %s", sm.String())
	}
}

func TestPackedPages(t *testing.T) {
	for _, tc := range []struct {
		rows, bytesPerRow, want int64
	}{
		{0, 16, 0},
		{1, 16, 1},
		{256, 16, 1}, // exactly one 4096-byte page of packed rows
		{257, 16, 2},
		{512, 8, 1}, // one page of bare keys
		{100000, 16, 391},
	} {
		if got := PackedPages(tc.rows, tc.bytesPerRow); got != tc.want {
			t.Errorf("PackedPages(%d, %d) = %d, want %d", tc.rows, tc.bytesPerRow, got, tc.want)
		}
	}
}
