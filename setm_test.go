package setm_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"setm"
)

func TestQuickstartFlow(t *testing.T) {
	res, err := setm.Mine(context.Background(), setm.PaperExample(), setm.Options{MinSupportFrac: 0.30})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLen() != 3 || res.TotalPatterns() != 13 {
		t.Errorf("MaxLen=%d patterns=%d, want 3 and 13", res.MaxLen(), res.TotalPatterns())
	}
	rs, err := setm.Rules(res, 0.70)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 11 {
		t.Errorf("rules = %d, want 11 (8 from C2, 3 from C3)", len(rs))
	}
	out := setm.FormatRules(rs, setm.LetterNamer)
	if !strings.Contains(out, "F ==> D, [100.0%, 30.0%]") {
		t.Errorf("missing paper rule in:\n%s", out)
	}
}

func TestAllDriversAgreeOnPublicAPI(t *testing.T) {
	d := setm.PaperExample()
	opts := setm.Options{MinSupportFrac: 0.30}
	mem, err := setm.Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := setm.MineSQL(d, opts, setm.SQLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mem.TotalPatterns() != sql.TotalPatterns() {
		t.Errorf("drivers disagree: mine=%d sql=%d", mem.TotalPatterns(), sql.TotalPatterns())
	}
}

func TestMinePublicAPI(t *testing.T) {
	d := setm.PaperExample()
	opts := setm.Options{MinSupportFrac: 0.30}
	mem, err := setm.Mine(context.Background(), d, setm.Options{MinSupportFrac: 0.30, MaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 12, 1 << 30} {
		o := opts
		o.MemoryBudget = budget
		auto, err := setm.Mine(context.Background(), d, o)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if auto.TotalPatterns() != mem.TotalPatterns() {
			t.Errorf("budget=%d: auto=%d patterns, mine=%d", budget, auto.TotalPatterns(), mem.TotalPatterns())
		}
		for _, st := range auto.Stats {
			if st.Plan.Kernel == "" || st.Plan.Workers < 1 {
				t.Errorf("budget=%d k=%d: missing plan %+v", budget, st.K, st.Plan)
			}
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := setm.Mine(cancelled, d, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want one wrapping context.Canceled", err)
	}
}

func TestGenerators(t *testing.T) {
	u := setm.NewUniformDataset(0.001, 1) // 200 transactions
	if u.NumTransactions() != 200 {
		t.Errorf("uniform transactions = %d", u.NumTransactions())
	}
	q := setm.NewQuestDataset(0.002, 1) // 200 transactions
	if q.NumTransactions() != 200 {
		t.Errorf("quest transactions = %d", q.NumTransactions())
	}
}

func TestDatasetIORoundTrip(t *testing.T) {
	d := setm.PaperExample()
	var buf bytes.Buffer
	if err := setm.WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := setm.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTransactions() != d.NumTransactions() {
		t.Fatalf("round trip lost transactions: %d vs %d",
			back.NumTransactions(), d.NumTransactions())
	}
	a, _ := setm.Mine(context.Background(), d, setm.Options{MinSupportFrac: 0.3})
	b, _ := setm.Mine(context.Background(), back, setm.Options{MinSupportFrac: 0.3})
	if a.TotalPatterns() != b.TotalPatterns() {
		t.Error("round trip changed mining result")
	}
}

func TestReadDatasetBasketForm(t *testing.T) {
	in := "# comment\n1 10 20 30\n2,10,20\n"
	d, err := setm.ReadDataset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 2 {
		t.Fatalf("transactions = %d", d.NumTransactions())
	}
	if len(d.Transactions[0].Items) != 3 {
		t.Errorf("basket items = %v", d.Transactions[0].Items)
	}
}

func TestReadDatasetErrors(t *testing.T) {
	cases := []string{"", "1\n", "x 1\n", "1 y\n"}
	for _, in := range cases {
		if _, err := setm.ReadDataset(strings.NewReader(in)); err == nil {
			t.Errorf("ReadDataset(%q) succeeded", in)
		}
	}
}

func TestRulesSQLPublicAPI(t *testing.T) {
	res, err := setm.Mine(context.Background(), setm.PaperExample(), setm.Options{MinSupportFrac: 0.30})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := setm.Rules(res, 0.70)
	if err != nil {
		t.Fatal(err)
	}
	viaSQL, err := setm.RulesSQL(res, 0.70)
	if err != nil {
		t.Fatal(err)
	}
	if len(proc) != len(viaSQL) {
		t.Errorf("procedural %d rules, SQL %d", len(proc), len(viaSQL))
	}
}

func TestMineClassesPublicAPI(t *testing.T) {
	d := &setm.ClassifiedDataset{}
	for _, tx := range setm.PaperExample().Transactions {
		d.Transactions = append(d.Transactions, setm.ClassifiedTransaction{
			ID: tx.ID, Class: tx.ID % 2, Items: tx.Items,
		})
	}
	res, err := setm.MineClasses(d, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	per := res.ByClass()
	if len(per) != 2 {
		t.Fatalf("classes = %d", len(per))
	}
	for class, r := range per {
		if _, err := setm.Rules(r, 0.7); err != nil {
			t.Errorf("class %d rules: %v", class, err)
		}
	}
}

// TestDownstreamWorkflow is the full adoption path: generate data, save it,
// load it back, mine with every driver, and generate rules both ways.
func TestDownstreamWorkflow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.txt")

	d := setm.NewQuestDataset(0.005, 11) // 500 transactions
	if err := setm.SaveDatasetFile(path, d); err != nil {
		t.Fatal(err)
	}
	loaded, err := setm.LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := setm.Options{MinSupportFrac: 0.02}

	mem, err := setm.Mine(context.Background(), loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaSQL, err := setm.MineSQL(loaded, opts, setm.SQLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mem.TotalPatterns() != viaSQL.TotalPatterns() {
		t.Fatalf("drivers disagree after file round trip: %d / %d",
			mem.TotalPatterns(), viaSQL.TotalPatterns())
	}
	rs, err := setm.Rules(mem, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rsSQL, err := setm.RulesSQL(mem, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(rsSQL) {
		t.Errorf("rule paths disagree: %d vs %d", len(rs), len(rsSQL))
	}
}

func TestSaveDatasetFileErrors(t *testing.T) {
	d := setm.PaperExample()
	if err := setm.SaveDatasetFile("/nonexistent-dir/x.txt", d); err == nil {
		t.Error("save into missing directory succeeded")
	}
	if _, err := setm.LoadDatasetFile("/nonexistent-dir/x.txt"); err == nil {
		t.Error("load of missing file succeeded")
	}
}

func TestMaxWorkersPublicAPI(t *testing.T) {
	seq, err := setm.Mine(context.Background(), setm.PaperExample(), setm.Options{MinSupportFrac: 0.30, MaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := setm.Mine(context.Background(), setm.PaperExample(), setm.Options{MinSupportFrac: 0.30, MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalPatterns() != par.TotalPatterns() {
		t.Errorf("MaxWorkers 4: %d patterns, sequential %d", par.TotalPatterns(), seq.TotalPatterns())
	}
	if !reflect.DeepEqual(par.Counts, seq.Counts) {
		t.Errorf("MaxWorkers 4: counts differ from MaxWorkers 1")
	}
}
