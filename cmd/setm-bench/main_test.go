package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAnalysis(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "analysis"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() == 0 {
		t.Error("analysis produced no output")
	}
}

func TestRunFigureProfiles(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-txns", "1500", "-seed", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run fig5: %v", err)
	}
	if !strings.Contains(stderr.String(), "generating retail data set (1500 transactions)") {
		t.Errorf("stderr = %q", stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("fig5 produced no output")
	}
	stdout.Reset()
	if err := run([]string{"-exp", "fig6", "-txns", "1500"}, &stdout, &stderr); err != nil {
		t.Fatalf("run fig6: %v", err)
	}
	if stdout.Len() == 0 {
		t.Error("fig6 produced no output")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp"}, &stdout, &stderr); err == nil {
		t.Error("dangling flag accepted")
	}
	// A mistyped experiment names the error and the valid names.
	err := run([]string{"-exp", "fig55"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `"fig55"`) || !strings.Contains(err.Error(), "rrows") {
		t.Errorf("-exp fig55: got %v, want an unknown-experiment error listing the names", err)
	}
	// The retired harness flags are gone, not silently ignored: the
	// flag parser itself refuses them, ahead of any experiment.
	for _, flag := range []string{"-json", "-check-trajectory"} {
		err := run([]string{"-exp", "analysis", flag, "x"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("retired flag %s: got %v, want the parser's undefined-flag error", flag, err)
		}
	}
}
