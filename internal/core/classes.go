package core

import (
	"fmt"
	"slices"
	"time"
)

// The paper's conclusion names the extension it is designed for: "We are
// investigating extending the algorithm in order to handle additional
// kinds of mining, e.g., relating association rules to customer classes."
// The class is a partitioning column: no pattern row of one class ever
// joins or counts with another's, and support is relative to the class's
// own transaction count. So classified mining is one grouping pass over
// the transactions followed by one ordinary mine per class on the shared
// executor, the count relations tagged into C_k(class, item_1..item_k,
// count) — no second SETM loop to keep in step with the first.

// ClassifiedTransaction is a customer transaction tagged with a customer
// class (e.g. a demographic segment).
type ClassifiedTransaction struct {
	ID    int64
	Class int64
	Items []Item
}

// ClassifiedDataset is a collection of classified transactions.
type ClassifiedDataset struct {
	Transactions []ClassifiedTransaction
}

// NumTransactions returns the total transaction count.
func (d *ClassifiedDataset) NumTransactions() int { return len(d.Transactions) }

// Classes returns the distinct classes in ascending order.
func (d *ClassifiedDataset) Classes() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, tx := range d.Transactions {
		if !seen[tx.Class] {
			seen[tx.Class] = true
			out = append(out, tx.Class)
		}
	}
	slices.Sort(out)
	return out
}

// ClassCounts returns the number of transactions per class (the support
// denominators).
func (d *ClassifiedDataset) ClassCounts() map[int64]int {
	out := make(map[int64]int)
	for _, tx := range d.Transactions {
		out[tx.Class]++
	}
	return out
}

// Subset returns the plain dataset of one class.
func (d *ClassifiedDataset) Subset(class int64) *Dataset {
	out := &Dataset{}
	for _, tx := range d.Transactions {
		if tx.Class == class {
			out.Transactions = append(out.Transactions, Transaction{ID: tx.ID, Items: tx.Items})
		}
	}
	return out
}

// ClassItemsetCount is one row of a per-class count relation.
type ClassItemsetCount struct {
	Class int64
	Items []Item
	Count int64
}

// ClassResult is the outcome of classified mining: per-class count
// relations plus the per-class transaction totals.
type ClassResult struct {
	// Counts[k-1] holds the classified C_k, ordered by (class, items).
	Counts [][]ClassItemsetCount
	// ClassTotals maps class -> number of transactions.
	ClassTotals map[int64]int
	// MinSupport per class is MinSupportFrac × class size (computed per
	// class so every class is mined at the same relative threshold).
	MinSupportFrac float64
	Elapsed        time.Duration
}

// ByClass splits the classified result into one plain Result per class,
// suitable for rule generation with the existing Section 5 machinery.
func (r *ClassResult) ByClass() map[int64]*Result {
	out := make(map[int64]*Result)
	for class, total := range r.ClassTotals {
		res := &Result{
			NumTransactions: total,
			MinSupport:      minSupFor(r.MinSupportFrac, total),
		}
		for k := 1; k <= len(r.Counts); k++ {
			var ck []ItemsetCount
			for _, c := range r.Counts[k-1] {
				if c.Class == class {
					ck = append(ck, ItemsetCount{Items: c.Items, Count: c.Count})
				}
			}
			res.Counts = append(res.Counts, ck)
		}
		trimEmptyTail(res)
		out[class] = res
	}
	return out
}

func minSupFor(frac float64, n int) int64 {
	ms := int64(frac * float64(n))
	if ms < 1 {
		ms = 1
	}
	return ms
}

// MineClasses mines every class at the same relative threshold: the
// transactions are grouped by class in one pass (the same trans_id in two
// classes is two transactions), each class is mined by MineMemory at that
// class's absolute threshold, and the per-class C_k are tagged with the
// class and concatenated in ascending class order — so Counts[k-1] is
// ordered by (class, items) and a class simply stops contributing once
// its own R_k runs empty.
func MineClasses(d *ClassifiedDataset, minSupportFrac float64) (*ClassResult, error) {
	if d == nil || len(d.Transactions) == 0 {
		return nil, fmt.Errorf("setm: empty classified dataset")
	}
	if minSupportFrac <= 0 || minSupportFrac > 1 {
		return nil, fmt.Errorf("setm: MinSupportFrac %v outside (0,1]", minSupportFrac)
	}
	start := time.Now()
	subsets := make(map[int64]*Dataset)
	var classes []int64
	for _, tx := range d.Transactions {
		sub := subsets[tx.Class]
		if sub == nil {
			sub = &Dataset{}
			subsets[tx.Class] = sub
			classes = append(classes, tx.Class)
		}
		sub.Transactions = append(sub.Transactions, Transaction{ID: tx.ID, Items: tx.Items})
	}
	slices.Sort(classes)

	res := &ClassResult{ClassTotals: make(map[int64]int, len(classes)), MinSupportFrac: minSupportFrac}
	for _, class := range classes {
		sub := subsets[class]
		n := sub.NumTransactions()
		res.ClassTotals[class] = n
		mined, err := MineMemory(sub, Options{MinSupportCount: minSupFor(minSupportFrac, n)})
		if err != nil {
			return nil, fmt.Errorf("setm: class %d: %w", class, err)
		}
		for i, ck := range mined.Counts {
			if i == len(res.Counts) {
				res.Counts = append(res.Counts, nil)
			}
			for _, c := range ck {
				res.Counts[i] = append(res.Counts[i], ClassItemsetCount{Class: class, Items: c.Items, Count: c.Count})
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
