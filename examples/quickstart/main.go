// Quickstart: mine the paper's own worked example (Figures 1–3) and
// reproduce the rule lists of Section 5.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Expected output: the count relations C_1..C_3 of Figures 1–3 and the
// eleven rules of Section 5 (eight from C_2, three from C_3).
package main

import (
	"context"
	"fmt"
	"log"

	"setm"
)

func main() {
	// The ten customer transactions of Figure 1 (items A..H are 1..8).
	d := setm.PaperExample()

	// "We require a minimum support of 30%, i.e., 3 transactions."
	res, err := setm.Mine(context.Background(), d, setm.Options{MinSupportFrac: 0.30})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mined %d transactions at minimum support %d\n\n",
		res.NumTransactions, res.MinSupport)
	for k := 1; k <= len(res.Counts); k++ {
		fmt.Printf("C_%d:\n", k)
		for _, c := range res.C(k) {
			for _, it := range c.Items {
				fmt.Printf("%s ", setm.LetterNamer(it))
			}
			fmt.Printf(": %d\n", c.Count)
		}
		fmt.Println()
	}

	// "The desired confidence factor is 70%."
	rs, err := setm.Rules(res, 0.70)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rules at confidence >= 70%%:\n%s", setm.FormatRules(rs, setm.LetterNamer))
}
