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
	for _, algo := range []string{"memory", "auto", "paged", "sql", "nested", "ais", "apriori"} {
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
	if err := run([]string{"-i", in, "-minsup-count", "3", "-patterns", "-letters", "-algo", "auto", "-workers", "3"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "D E F : 3") {
		t.Errorf("patterns output missing DEF:\n%s", stdout.String())
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

	mine := exec.Command(filepath.Join(dir, "setm-mine"), "-i", sales, "-minsup", "0.05", "-algo", "auto", "-workers", "2")
	out, err := mine.CombinedOutput()
	if err != nil {
		t.Fatalf("setm-mine: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "|C_1| = ") {
		t.Errorf("unexpected mine output:\n%s", out)
	}
	fmt.Fprintf(os.Stderr, "pipeline output:\n%s", out)
}
