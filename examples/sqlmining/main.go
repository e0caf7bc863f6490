// SQL mining: the paper's central claim demonstrated — Algorithm SETM
// executed as SQL statements by the bundled relational engine. Every
// statement is printed before it runs, so the output shows the Section 4.1
// queries (R'_k generation, C_k counting with GROUP BY/HAVING, R_k
// filtering with ORDER BY) instantiated for each iteration.
//
// Run with:
//
//	go run ./examples/sqlmining
package main

import (
	"context"
	"fmt"
	"log"

	"setm"
)

func main() {
	d := setm.PaperExample()

	fmt.Println("== Mining the Figure 1 example via SQL ==")
	res, err := setm.MineSQL(d, setm.Options{MinSupportFrac: 0.30}, setm.SQLConfig{
		TraceSQL: func(sql string) { fmt.Printf("\n%s;\n", sql) },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Result ==")
	for k := 1; k <= len(res.Counts); k++ {
		fmt.Printf("|C_%d| = %d\n", k, len(res.C(k)))
	}
	rs, err := setm.Rules(res, 0.70)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d rules:\n%s", len(rs), setm.FormatRules(rs, setm.LetterNamer))

	// Rule generation can itself run as SQL: joins between C_k and
	// C_{k-1} with the confidence test in integer arithmetic.
	sqlRules, err := setm.RulesSQL(res, 0.70)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrules re-derived via SQL joins over the count tables: %d (identical)\n", len(sqlRules))

	// Cross-check against the native executor.
	mem, err := setm.Mine(context.Background(), d, setm.Options{MinSupportFrac: 0.30})
	if err != nil {
		log.Fatal(err)
	}
	if mem.TotalPatterns() != res.TotalPatterns() || len(sqlRules) != len(rs) {
		log.Fatalf("SQL and native paths disagree")
	}
	fmt.Println("SQL driver output verified against the native executor.")
}
