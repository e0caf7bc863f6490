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
	// The retired harness flags are gone, not silently ignored.
	for _, flag := range []string{"-json", "-check-trajectory"} {
		if err := run([]string{"-exp", "none", flag, "x"}, &stdout, &stderr); err == nil {
			t.Errorf("retired flag %s accepted", flag)
		}
	}
}
