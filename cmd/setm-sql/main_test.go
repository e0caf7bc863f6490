package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"setm"
)

func TestRunExecutesScript(t *testing.T) {
	script := strings.Join([]string{
		"CREATE TABLE c1 (item1 INT, cnt INT);",
		"INSERT INTO c1 VALUES (1, 6), (2, 4);",
		"SELECT * FROM c1 ORDER BY item1;",
		"\\q",
	}, "\n")
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader(script), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"sql> ", "2 rows affected", "(2 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPreloadsSalesAndMines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.txt")
	if err := setm.SaveDatasetFile(path, setm.PaperExample()); err != nil {
		t.Fatal(err)
	}
	// The paper's C_1 query at minimum support 3 (Figure 1) over the
	// preloaded SALES table.
	script := strings.Join([]string{
		"CREATE TABLE c1 (item1 INT, cnt INT);",
		"INSERT INTO c1 SELECT s.item, COUNT(*) FROM sales s",
		"GROUP BY s.item HAVING COUNT(*) >= 3;",
		"SELECT * FROM c1 ORDER BY item1;",
	}, "\n")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-load", path}, strings.NewReader(script), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "loaded 30 rows into sales") {
		t.Errorf("missing preload line:\n%s", out)
	}
	// Figure 1: six frequent items (A B C D E F as 1..6).
	if !strings.Contains(out, "(6 rows)") {
		t.Errorf("C_1 should have 6 rows:\n%s", out)
	}
}

// TestRunPrintsExplainPlan: EXPLAIN prints the plan as plain lines, one
// operator per line and the estimate last, not as a result table.
func TestRunPrintsExplainPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.txt")
	if err := setm.SaveDatasetFile(path, setm.PaperExample()); err != nil {
		t.Fatal(err)
	}
	script := "EXPLAIN ANALYZE SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item;\n"
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-load", path}, strings.NewReader(script), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{
		"\nsql> Project (item INT, COUNT(*) INT)  -- actual 8 rows",
		"\n      HeapScan (trans_id INT, item INT) (30 rows, 1 pages)",
		"\nactual: 8 rows; estimated: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rows)") {
		t.Errorf("EXPLAIN printed as a result table:\n%s", out)
	}
}

func TestRunReportsSQLErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader("SELECT FROM;\n"), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "error:") {
		t.Errorf("bad SQL not reported:\n%s", stdout.String())
	}
}
