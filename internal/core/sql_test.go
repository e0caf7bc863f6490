package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"setm/internal/core"
	"setm/internal/engine"
	"setm/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current planner")

// sqlFixture is one data set the SQL-path tests mine, deep enough to
// reach k = 3. retail-8KiB is retail under an 8 KiB budget: its count
// statements plan SortGroup over external sorts, the bounded-memory path
// of GROUP BY, where a 32 KiB budget still plans HashGroup.
type sqlFixture struct {
	name string
	d    *core.Dataset
	opts core.Options
}

func sqlFixtures() []sqlFixture {
	retail := gen.DefaultRetail(7)
	retail.NumTransactions = 4000
	return []sqlFixture{
		{"retail", gen.Retail(retail), core.Options{MinSupportFrac: 0.01}},
		{"retail-8KiB", gen.Retail(retail), core.Options{MinSupportFrac: 0.01, MemoryBudget: 8 << 10}},
		{"quest", gen.Quest(gen.T10I4D100K(0.03, 1)), core.Options{MinSupportFrac: 0.003}},
	}
}

// TestMineSQLIgnoresMaxWorkers: the SQL driver is serial. MaxWorkers
// changes neither the counts nor the reported plan, and a finished mine
// leaves no frame pinned.
func TestMineSQLIgnoresMaxWorkers(t *testing.T) {
	for _, fx := range sqlFixtures() {
		var want *core.Result
		for _, workers := range []int{0, 1, 4} {
			label := fmt.Sprintf("%s MaxWorkers=%d", fx.name, workers)
			opts := fx.opts
			opts.MaxWorkers = workers
			got, db, err := core.MineSQLOn(fx.d, opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got.Counts) < 3 {
				t.Fatalf("%s: setup: only %d passes, want k >= 3", label, len(got.Counts))
			}
			if want == nil {
				want = got
			}
			assertIdenticalCounts(t, label, want, got)
			for _, st := range got.Stats {
				if st.Plan.String() != "sql/spilled/1w" {
					t.Errorf("%s k=%d: plan %q, want sql/spilled/1w", label, st.K, st.Plan)
				}
			}
			if n := db.Pool().PinnedFrames(); n != 0 {
				t.Errorf("%s: %d frames still pinned", label, n)
			}
		}
	}
}

var (
	pagesRE = regexp.MustCompile(`\d+ pages`)
	spaceRE = regexp.MustCompile(`\s+`)
)

// TestFigure4PlansGolden pins the plans of the statements a mine issues
// through k = 3 — pass 1's count, then extend, count and filter per pass,
// each pass's C_k read-back included — to the committed EXPLAIN text, so
// a planner change that moves a Figure-4 plan has to say so (-update).
// Page counts are masked; operator choice, row estimates and the notes
// naming each choice's rule are not.
func TestFigure4PlansGolden(t *testing.T) {
	for _, fx := range sqlFixtures() {
		var out strings.Builder
		explain := func(db *engine.DB, sel string) {
			res, err := db.Exec("EXPLAIN "+sel, map[string]int64{"minsupport": fx.opts.ResolveMinSupport(fx.d.NumTransactions())})
			if err != nil {
				t.Fatalf("%s: EXPLAIN %s: %v", fx.name, sel, err)
			}
			fmt.Fprintf(&out, "-- %s\n", spaceRE.ReplaceAllString(sel, " "))
			out.WriteString(pagesRE.ReplaceAllString(res.Plan, "N pages"))
			out.WriteByte('\n')
		}
		opts := fx.opts
		opts.MaxWorkers = 1
		opts.MaxPatternLen = 3
		_, _, err := core.MineSQLOn(fx.d, opts, func(db *engine.DB, sql string) {
			var k int
			switch {
			case strings.HasPrefix(sql, "INSERT INTO"):
				explain(db, sql[strings.Index(sql, "SELECT"):])
			case scan(sql, "DROP TABLE c%d", &k):
				// C_k is complete and about to go: the state its read-back saw.
				explain(db, core.CountsQuery(k))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		path := filepath.Join("testdata", "figure4_explain_"+fx.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%s: Figure-4 plans differ from %s\n--- got\n%s--- want\n%s", fx.name, path, got, want)
		}
	}
}

// scan reports whether s matches format exactly, filling args.
func scan(s, format string, args ...interface{}) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}
