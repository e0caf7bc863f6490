// Retail: the Section 6 evaluation on the calibrated stand-in for the
// paper's 46,873-transaction retail data set. Sweeps the paper's minimum
// supports (0.1%–5%), printing the Figure 5/6 iteration profiles and the
// Section 6.2 execution-time table, then shows the strongest rules at 1%
// support.
//
// Run with:
//
//	go run ./examples/retail [-txns 46873]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"setm"
	"setm/internal/experiments"
	"setm/internal/gen"
)

func main() {
	txns := flag.Int("txns", 46873, "number of transactions to generate")
	seed := flag.Int64("seed", 1, "data seed")
	flag.Parse()

	cfg := gen.DefaultRetail(*seed)
	cfg.NumTransactions = *txns
	d := gen.Retail(cfg)
	fmt.Printf("retail stand-in: %d transactions, |R_1| = %d rows\n\n",
		d.NumTransactions(), d.NumSalesRows())

	series, err := experiments.IterationProfile(d, experiments.PaperMinSupports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.FormatFig5(series))
	fmt.Println(experiments.FormatFig6(series))

	rows, err := experiments.ExecTimes(d, experiments.PaperMinSupports, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.FormatExecTimes(rows))

	// Strongest rules at 1% support, 70% confidence.
	res, err := setm.Mine(context.Background(), d, setm.Options{MinSupportFrac: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	rs, err := setm.Rules(res, 0.70)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Confidence > rs[j].Confidence })
	n := len(rs)
	if n > 10 {
		n = 10
	}
	fmt.Printf("top %d of %d rules at 1%% support / 70%% confidence:\n", n, len(rs))
	fmt.Print(setm.FormatRules(rs[:n], nil))
}
