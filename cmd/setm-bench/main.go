// Command setm-bench regenerates the paper's evaluation tables and
// figures, one -exp each (README "Benchmarks" lists the go test suites
// that time them):
//
//	setm-bench -exp fig5      # Figure 5: size of R_i per iteration
//	setm-bench -exp fig6      # Figure 6: cardinality of C_i per iteration
//	setm-bench -exp rrows     # Figure 5's sizes of R_i, in rows
//	setm-bench -exp times     # Section 6.2: execution time vs support
//	setm-bench -exp analysis  # Sections 3.2 / 4.3: analytical evaluation
//	setm-bench -exp compare   # SETM vs nested-loop vs AIS vs Apriori
//	setm-bench -exp io        # measured paged I/O vs the 4.3 bound
//	setm-bench -exp model     # live relation sizes vs the analytic model
//	setm-bench -exp all
//
// By default experiments run on the calibrated retail stand-in at full
// published size (46,873 transactions); -txns scales it down.
//
// This command reproduces the paper's figures; it is not the performance
// instrument. Timings that gate a change come from bench/ (BENCHMARK.json,
// `bash bench/run.sh`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"setm/internal/core"
	"setm/internal/experiments"
	"setm/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "setm-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("setm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exps := []string{"fig5", "fig6", "rrows", "times", "analysis", "compare", "io", "model", "all"}
	exp := fs.String("exp", "all", "experiment: "+strings.Join(exps, ", "))
	txns := fs.Int("txns", 46873, "number of retail transactions to generate")
	seed := fs.Int64("seed", 1, "data seed")
	repeats := fs.Int("repeats", 3, "timing repetitions (best-of)")
	compareTxns := fs.Int("compare-txns", 4000, "transactions for the algorithm comparison (nested-loop is slow)")
	memBudget := fs.Int64("membudget", 0, "Options.MemoryBudget in bytes for the io experiment (0 = driver default, -1 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if !slices.Contains(exps, *exp) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *exp, strings.Join(exps, ", "))
	}

	cfg := gen.DefaultRetail(*seed)
	cfg.NumTransactions = *txns
	want := func(name string) bool { return *exp == "all" || *exp == name }

	var d *core.Dataset
	dataset := func() *core.Dataset {
		if d == nil {
			fmt.Fprintf(stderr, "generating retail data set (%d transactions)...\n", *txns)
			d = gen.Retail(cfg)
			fmt.Fprintf(stderr, "|R_1| = %d rows\n", d.NumSalesRows())
		}
		return d
	}

	if want("analysis") {
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprint(stdout, experiments.AnalysisReport())
	}

	if want("fig5") || want("fig6") || want("rrows") {
		series, err := experiments.IterationProfile(dataset(), experiments.PaperMinSupports)
		if err != nil {
			return err
		}
		if want("fig5") {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
			fmt.Fprint(stdout, experiments.FormatFig5(series))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.ChartFig5(series))
		}
		if want("rrows") {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
			fmt.Fprint(stdout, experiments.FormatRRows(series))
		}
		if want("fig6") {
			fmt.Fprintln(stdout, strings.Repeat("=", 72))
			fmt.Fprint(stdout, experiments.FormatFig6(series))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.ChartFig6(series))
		}
	}

	if want("times") {
		rows, err := experiments.ExecTimes(dataset(), experiments.PaperMinSupports, *repeats)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprint(stdout, experiments.FormatExecTimes(rows))
	}

	if want("compare") {
		ccfg := gen.DefaultRetail(*seed)
		ccfg.NumTransactions = *compareTxns
		cd := gen.Retail(ccfg)
		rows, err := experiments.Compare(cd, core.Options{MinSupportFrac: 0.01})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprintf(stdout, "(on %d retail transactions, 1%% support)\n", *compareTxns)
		fmt.Fprint(stdout, experiments.FormatCompare(rows))
	}

	if want("model") {
		rows, err := experiments.ModelVsMeasured(0.02, *seed) // 4,000 txns
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprint(stdout, experiments.FormatModelVsMeasured(rows))
		fmt.Fprintln(stdout, "(live pages hold 16-byte packed rows per 4096-byte page; the model packs (k+1)×4-byte fields into 4,000 usable bytes)")
	}

	if want("io") {
		iocfg := gen.DefaultRetail(*seed)
		iocfg.NumTransactions = *compareTxns
		iod := gen.Retail(iocfg)
		measured, bound, seqDominated, err := experiments.PagedIOCheck(iod, core.Options{MinSupportFrac: 0.01, MemoryBudget: *memBudget})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprintf(stdout, "Paged SETM I/O on %d retail transactions at 1%% support:\n", *compareTxns)
		fmt.Fprintf(stdout, "measured page accesses: %d\n", measured)
		fmt.Fprintf(stdout, "Section 4.3 bound (n·‖R_1‖ + 3·Σ‖R_i‖ from run footprints): %d\n", bound)
		fmt.Fprintf(stdout, "sequential-dominated: %v\n", seqDominated)
	}

	return nil
}
