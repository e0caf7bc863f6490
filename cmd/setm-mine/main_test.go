package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"setm"
)

// writeExampleFile saves the paper's 10-transaction example in SALES
// format for the CLI to read back.
func writeExampleFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sales.txt")
	if err := setm.SaveDatasetFile(path, setm.PaperExample()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllAlgorithmsOnPaperExample(t *testing.T) {
	in := writeExampleFile(t)
	for _, algo := range []string{"setm", "sql", "nested", "ais", "apriori"} {
		t.Run(algo, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-i", in, "-minsup", "0.30", "-minconf", "0.70", "-letters", "-algo", algo}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := stdout.String()
			// Figures 1–3: |C_1| = 6, |C_2| = 6, |C_3| = 1, regardless of driver.
			for _, want := range []string{"|C_1| = 6", "|C_2| = 6", "|C_3| = 1", "rules at confidence >= 70%"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunPatternsFlag(t *testing.T) {
	in := writeExampleFile(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", in, "-minsup-count", "3", "-patterns", "-letters", "-algo", "setm", "-workers", "3"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "D E F : 3") {
		t.Errorf("patterns output missing DEF:\n%s", stdout.String())
	}
}

// TestRunPrintsPlans checks the per-pass table: a 32 KiB budget spills
// the native executor's passes, and the SQL driver's passes name its
// kernel.
func TestRunPrintsPlans(t *testing.T) {
	in := filepath.Join(t.TempDir(), "quest.txt")
	if err := setm.SaveDatasetFile(in, setm.NewQuestDataset(0.008, 1)); err != nil { // 800 transactions
		t.Fatal(err)
	}
	for algo, want := range map[string]string{"setm": "packed/spilled", "sql": "sql/spilled/1w"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-i", in, "-minsup", "0.01", "-algo", algo, "-membudget", "32768"}, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := stdout.String()
		if !strings.Contains(out, "|R'_k|") || !strings.Contains(out, want) {
			t.Errorf("-algo %s -membudget 32768 prints no %q row:\n%s", algo, want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing -i accepted")
	}
	in := writeExampleFile(t)
	if err := run([]string{"-i", in, "-algo", "bogus"}, &stdout, &stderr); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-i", filepath.Join(t.TempDir(), "absent.txt")}, &stdout, &stderr); err == nil {
		t.Error("missing input file accepted")
	}
}

// TestGenMinePipeline builds the real setm-gen and setm-mine binaries and
// pipes a tiny generated dataset through them, exercising the CLIs
// end-to-end as a user would.
func TestGenMinePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary build")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	dir := t.TempDir()
	build := exec.Command(goBin, "build", "-o", dir, "setm/cmd/setm-gen", "setm/cmd/setm-mine")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	sales := filepath.Join(dir, "sales.txt")
	gen := exec.Command(filepath.Join(dir, "setm-gen"), "-profile", "quest", "-scale", "0.001", "-seed", "7", "-o", sales)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("setm-gen: %v\n%s", err, out)
	}
	if _, err := os.Stat(sales); err != nil {
		t.Fatal(err)
	}

	mine := exec.Command(filepath.Join(dir, "setm-mine"), "-i", sales, "-minsup", "0.05", "-algo", "setm", "-workers", "2")
	out, err := mine.CombinedOutput()
	if err != nil {
		t.Fatalf("setm-mine: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "|C_1| = ") {
		t.Errorf("unexpected mine output:\n%s", out)
	}
	fmt.Fprintf(os.Stderr, "pipeline output:\n%s", out)
}
