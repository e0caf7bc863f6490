// Command setm-mine finds association rules in a transaction file using
// Algorithm SETM or one of the implemented baselines.
//
// Usage:
//
//	setm-mine -i sales.txt -minsup 0.01 -minconf 0.7
//	setm-mine -i sales.txt -algo sql -trace       # show the SQL being run
//	setm-mine -i sales.txt -workers 2 -membudget 1048576
//	setm-mine -i sales.txt -algo apriori -patterns
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"setm"
	"setm/internal/apriori"
	"setm/internal/baseline"
	"setm/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "setm-mine: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("setm-mine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input transaction file (SALES format); required")
	minSup := fs.Float64("minsup", 0.01, "minimum support as a fraction of transactions")
	minSupCount := fs.Int64("minsup-count", 0, "minimum support as an absolute count (overrides -minsup)")
	minConf := fs.Float64("minconf", 0.70, "minimum confidence factor")
	algo := fs.String("algo", "setm", "algorithm: setm, sql, nested, ais, apriori")
	workers := fs.Int("workers", 0, "with -algo setm: worker cap of the packed kernels' fan-out (0 = GOMAXPROCS); the other algorithms are serial")
	memBudget := fs.Int64("membudget", 0, "with -algo setm or sql: memory budget in bytes, spilling past it (0 = unbounded)")
	trace := fs.Bool("trace", false, "with -algo sql: print each SQL statement")
	patterns := fs.Bool("patterns", false, "print frequent patterns, not just rules")
	letters := fs.Bool("letters", false, "display items 1..26 as A..Z")
	maxLen := fs.Int("maxlen", 0, "stop after patterns of this length (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -i input file")
	}
	d, err := setm.LoadDatasetFile(*in)
	if err != nil {
		return err
	}
	opts := setm.Options{
		MinSupportFrac:  *minSup,
		MinSupportCount: *minSupCount,
		MaxPatternLen:   *maxLen,
		MemoryBudget:    *memBudget,
	}

	var res *setm.Result
	switch *algo {
	case "setm":
		opts.MaxWorkers = *workers
		res, err = setm.Mine(context.Background(), d, opts)
	case "sql":
		cfg := setm.SQLConfig{}
		if *trace {
			cfg.TraceSQL = func(s string) { fmt.Fprintf(stderr, "-- SQL:\n%s\n", s) }
		}
		res, err = setm.MineSQL(d, opts, cfg)
	case "nested":
		var nr *baseline.NestedLoopResult
		nr, err = baseline.Mine(d, opts, baseline.Config{})
		if err == nil {
			res = nr.Result
			fmt.Fprintf(stdout, "page I/O: %s\n", nr.IO.String())
		}
	case "ais":
		res, err = apriori.MineAIS(d, opts)
	case "apriori":
		res, err = apriori.MineApriori(d, opts)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	if *algo == "setm" || *algo == "sql" {
		printPlans(stdout, res.Stats)
	}

	var namer setm.ItemNamer
	if *letters {
		namer = setm.LetterNamer
	}

	fmt.Fprintf(stdout, "%d transactions, minimum support %d transactions, elapsed %v\n",
		res.NumTransactions, res.MinSupport, res.Elapsed)
	for k := 1; k <= len(res.Counts); k++ {
		fmt.Fprintf(stdout, "|C_%d| = %d\n", k, len(res.C(k)))
	}
	if *patterns {
		for k := 1; k <= len(res.Counts); k++ {
			for _, c := range res.C(k) {
				fmt.Fprintf(stdout, "  %v : %d\n", formatItems(c.Items, namer), c.Count)
			}
		}
	}

	rs, err := setm.Rules(res, *minConf)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d rules at confidence >= %.0f%%:\n", len(rs), *minConf*100)
	fmt.Fprint(stdout, setm.FormatRules(rs, namer))
	return nil
}

// printPlans prints the plan each pass ran with the sizes it saw and the
// work it did: the EXPLAIN of a mine.
func printPlans(w io.Writer, stats []setm.IterationStat) {
	fmt.Fprintf(w, "%4s  %-24s %10s %10s %8s %6s %8s %12s\n",
		"k", "plan", "|R'_k|", "|R_k|", "|C_k|", "runs", "pageIO", "duration")
	for _, st := range stats {
		fmt.Fprintf(w, "%4d  %-24s %10d %10d %8d %6d %8d %12v\n",
			st.K, st.Plan, st.RPrimeRows, st.RRows, st.CCount, st.RunsSpilled, st.PageIO, st.Duration)
	}
}

func formatItems(items []core.Item, namer setm.ItemNamer) string {
	out := ""
	for i, it := range items {
		if i > 0 {
			out += " "
		}
		if namer != nil {
			out += namer(it)
		} else {
			out += fmt.Sprintf("%d", it)
		}
	}
	return out
}
