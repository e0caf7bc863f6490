// MineClasses against an oracle that shares none of its code: the
// independent Apriori implementation run on each class's subset.
package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"setm/internal/apriori"
	"setm/internal/core"
)

// assertClassesMatchApriori requires res to be exactly the per-class
// Apriori results tagged and concatenated in ascending class order, which
// also pins Counts[k-1] to strict (class, items) order.
func assertClassesMatchApriori(t *testing.T, d *core.ClassifiedDataset, frac float64, res *core.ClassResult) {
	t.Helper()
	var want [][]core.ClassItemsetCount
	for _, class := range d.Classes() {
		sub := d.Subset(class)
		if res.ClassTotals[class] != sub.NumTransactions() {
			t.Errorf("class %d: total %d, want %d", class, res.ClassTotals[class], sub.NumTransactions())
		}
		oracle, err := apriori.MineApriori(sub, core.Options{MinSupportFrac: frac})
		if err != nil {
			t.Fatal(err)
		}
		for i, ck := range oracle.Counts {
			if i == len(want) {
				want = append(want, nil)
			}
			for _, c := range ck {
				want[i] = append(want[i], core.ClassItemsetCount{Class: class, Items: c.Items, Count: c.Count})
			}
		}
	}
	if len(res.Counts) != len(want) {
		t.Fatalf("%d count relations, want %d", len(res.Counts), len(want))
	}
	for i := range want {
		if len(res.Counts[i]) != len(want[i]) {
			t.Errorf("|C_%d| = %d, want %d", i+1, len(res.Counts[i]), len(want[i]))
			continue
		}
		for j, w := range want[i] {
			g := res.Counts[i][j]
			if g.Class != w.Class || g.Count != w.Count || !slices.Equal(g.Items, w.Items) {
				t.Errorf("C_%d[%d] = %+v, want %+v", i+1, j, g, w)
			}
			if j > 0 {
				p := res.Counts[i][j-1]
				if p.Class > g.Class || (p.Class == g.Class && slices.Compare(p.Items, g.Items) >= 0) {
					t.Errorf("C_%d[%d] = %+v does not follow %+v in (class, items) order", i+1, j, g, p)
				}
			}
		}
	}
}

func TestMineClassesMatchesAprioriPerClass(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	d := &core.ClassifiedDataset{}
	next := make(map[int64]int64) // per-class trans_ids: every class reuses 1, 2, 3…
	for i := 0; i < 900; i++ {
		// Every class once, then skewed sizes: low classes are large,
		// high ones stay at a handful of transactions.
		class := int64(i) - 7
		if i >= 40 {
			class = int64(rng.Intn(1+rng.Intn(40))) - 7
		}
		items := make([]core.Item, 1+rng.Intn(6))
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(9))
		}
		next[class]++
		d.Transactions = append(d.Transactions, core.ClassifiedTransaction{ID: next[class], Class: class, Items: items})
	}
	if n := len(d.Classes()); n != 40 {
		t.Fatalf("setup: %d classes, want 40", n)
	}
	for _, frac := range []float64{0.05, 0.2, 0.6} {
		res, err := core.MineClasses(d, frac)
		if err != nil {
			t.Fatal(err)
		}
		assertClassesMatchApriori(t, d, frac, res)
	}
}

func TestMineClassesEdgeCases(t *testing.T) {
	d := &core.ClassifiedDataset{Transactions: []core.ClassifiedTransaction{
		// trans_id 1 occurs in classes 1 and 2: two transactions, never joined.
		{ID: 1, Class: 1, Items: []core.Item{1, 2}},
		{ID: 3, Class: 1, Items: []core.Item{1}},
		// Class 2 (threshold 2) stops at the pair {2,3}.
		{ID: 1, Class: 2, Items: []core.Item{2, 3}},
		{ID: 2, Class: 2, Items: []core.Item{2, 3, 4}},
		{ID: 3, Class: 2, Items: []core.Item{2, 3}},
		{ID: 4, Class: 2, Items: []core.Item{3}},
		// Class 3 (threshold 3) has frequent items but no frequent pair.
		{ID: 5, Class: 3, Items: []core.Item{5, 6}},
		{ID: 6, Class: 3, Items: []core.Item{5, 7}},
		{ID: 7, Class: 3, Items: []core.Item{6, 7}},
		{ID: 8, Class: 3, Items: []core.Item{5}},
		{ID: 9, Class: 3, Items: []core.Item{6}},
		// Class 9 is one transaction: every subset of it is frequent.
		{ID: 2, Class: 9, Items: []core.Item{8, 9, 10}},
	}}
	res, err := core.MineClasses(d, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	assertClassesMatchApriori(t, d, 0.6, res)

	per := res.ByClass()
	if got := per[1].Support([]core.Item{2, 3}); got != 0 {
		t.Errorf("class 1 sees class 2's pair {2,3} through the shared trans_id: support %d", got)
	}
	if got := per[2].Support([]core.Item{2, 3}); got != 3 {
		t.Errorf("class 2 support of {2,3} = %d, want 3", got)
	}
	if got := per[3].MaxLen(); got != 1 {
		t.Errorf("class 3 MaxLen = %d, want 1 (its C_2 is empty)", got)
	}
	if got := per[9].Support([]core.Item{8, 9, 10}); got != 1 || len(res.Counts) != 3 {
		t.Errorf("single-transaction class: support of its basket %d, %d count relations; want 1 and 3", got, len(res.Counts))
	}
	for _, c := range res.Counts[2] {
		if c.Class != 9 {
			t.Errorf("C_3 holds %+v; only class 9 reaches k=3", c)
		}
	}
}
