// Comparison: every implemented algorithm — SETM's in-memory, adaptive
// (Mine), paged, and SQL drivers, the rejected nested-loop strategy,
// AIS, and Apriori — on a shared Quest synthetic workload, with built-in
// cross-validation that they all find the same frequent patterns. Also
// reports the measured page-I/O split (random vs sequential) that
// Sections 3.2/4.3 reason about, and the per-iteration plans the
// adaptive executor chose.
//
// Run with:
//
//	go run ./examples/comparison [-scale 0.03]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"setm"
	"setm/internal/core"
	"setm/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.03, "T10.I4 data scale (1.0 = 100k transactions)")
	minsup := flag.Float64("minsup", 0.01, "minimum support fraction")
	flag.Parse()

	d := setm.NewQuestDataset(*scale, 7)
	fmt.Printf("T10.I4 synthetic data: %d transactions, %d sales rows\n\n",
		d.NumTransactions(), d.NumSalesRows())

	rows, err := experiments.Compare(d, core.Options{MinSupportFrac: *minsup})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatCompare(rows))

	// The adaptive executor under a 1 MB budget: show the per-iteration
	// plans it chose (kernel/regime/workers) — the EXPLAIN of mining.
	auto, err := setm.Mine(context.Background(), d, setm.Options{MinSupportFrac: *minsup, MemoryBudget: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMine @ 1 MB budget — per-iteration chosen plans:")
	for _, st := range auto.Stats {
		fmt.Printf("  k=%d  plan=%-22s |R'|=%-8d |R|=%-8d runs=%d pageIO=%d\n",
			st.K, st.Plan, st.RPrimeRows, st.RRows, st.RunsSpilled, st.PageIO)
	}

	fmt.Println("\nAll algorithms found identical pattern sets (validated).")
	fmt.Println("Note the I/O columns: SETM's paged driver is sequential-dominated,")
	fmt.Println("the nested-loop baseline random-dominated — the asymmetry that")
	fmt.Println("drives the paper's 11-hours-vs-10-minutes analysis.")
}
