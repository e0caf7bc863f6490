// Command bench is the repository's benchmark: five workloads over the
// miner, the SQL path and setmd, each reporting end-to-end metrics from a
// measured pass with tracing off and per-layer metrics from a traced pass.
// BENCHMARK.json at the repository root declares it; README.md beside this
// file says what every metric means and which layer should move which.
//
//	bench                                   every workload, both passes, seed 1
//	bench -workload quest-spilled -seed 7   one workload, one seed
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                        one pass; the last line of output is
//	                                        the JSON object the driver reads
//	bench -selfcheck                        the suite twice, must agree within bounds
//	bench -compare old.json new.json        verdict per workload and metric
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload  string
	seeds     []int64
	seconds   float64
	trace     int // 0, 1, or -1 for both passes
	sc        scale
	outDir    string
	benchJSON string // path of BENCHMARK.json
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "run only this workload (default: all five)")
	seedFlag := fs.String("seed", "1", "data seed, or a comma-separated list of seeds to run in turn")
	seconds := fs.Float64("seconds", -1, "length of the measured pass (default: run_seconds of BENCHMARK.json; 0 at -scale tiny)")
	trace := fs.Int("trace", -1, "0: measured pass, tracing off; 1: traced pass; default both")
	scaleFlag := fs.String("scale", "full", "full, or tiny (small inputs, minimum op counts; for the tests)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice on this build and fail if an end-to-end metric disagrees beyond its bound")
	child := fs.Bool("child", false, "internal: run one workload pass in this process and print its result as JSON")
	refFlag := fs.String("ref", "", "internal: reference digests for -child")
	setupOnly := fs.Bool("setuponly", false, "internal: -child stops after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	dir := benchDir()
	o := options{workload: *workloadFlag, seconds: *seconds, trace: *trace,
		outDir: filepath.Join(dir, "out"), benchJSON: filepath.Join(dir, "..", "BENCHMARK.json")}
	switch *scaleFlag {
	case "full":
		o.sc = scaleFull
	case "tiny":
		o.sc = scaleTiny
	default:
		return fail(fmt.Errorf("unknown -scale %q (want full or tiny)", *scaleFlag))
	}
	for _, s := range strings.Split(*seedFlag, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fail(fmt.Errorf("bad -seed %q", *seedFlag))
		}
		o.seeds = append(o.seeds, seed)
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return fail(fmt.Errorf("unknown -workload %q", o.workload))
		}
	}
	decl, declErr := loadDeclaration(o.benchJSON)
	if o.seconds < 0 {
		o.seconds = 0 // tiny: the minimum op counts alone
		if o.sc.name == "full" && declErr == nil {
			o.seconds = float64(decl.RunSeconds)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fail(err)
	}

	switch {
	case *child:
		return childMain(o, *refFlag, *setupOnly, stdout, stderr)
	case *compare:
		if fs.NArg() != 2 || declErr != nil {
			return fail(fmt.Errorf("usage: bench -compare old.json new.json (needs %s: %v)", o.benchJSON, declErr))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), decl, stdout, stderr)
	case declErr != nil:
		return fail(declErr)
	case *selfcheck:
		return selfCheck(o, decl, stdout, stderr)
	}
	runs, err := suite(o, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	if err := writeResults(filepath.Join(o.outDir, "result.json"), runs); err != nil {
		return fail(err)
	}
	bad := failures(runs)
	if len(runs) == 1 {
		// One workload, one pass: the contract's result line comes last.
		if err := printDriverLine(stdout, runs[0], decl, len(bad) == 0); err != nil {
			return fail(err)
		}
	}
	if len(bad) > 0 {
		return fail(fmt.Errorf("incorrect: %s", strings.Join(bad, "; ")))
	}
	return 0
}

// benchDir finds the benchmark's own directory: beside the binary when
// run.sh built it into out/, else by looking from the working directory.
func benchDir() string {
	if exe, err := os.Executable(); err == nil && filepath.Base(filepath.Dir(exe)) == "out" {
		return filepath.Dir(filepath.Dir(exe))
	}
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// childMain is the workload's own process: one pass, result on stdout.
func childMain(o options, ref string, setupOnly bool, stdout, stderr io.Writer) int {
	w, _ := findWorkload(o.workload)
	cfg := runConfig{w: w, seed: o.seeds[0], seconds: o.seconds, trace: o.trace == 1, sc: o.sc, outDir: o.outDir, setupOnly: setupOnly}
	for _, h := range strings.Split(ref, ",") {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			fmt.Fprintf(stderr, "bench: bad -ref %q\n", ref)
			return 2
		}
		cfg.refs = append(cfg.refs, v)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// setupRuns is how many fresh processes set a workload up for the
// measured pass; setup_s takes their median.
const setupRuns = 3

// runOne runs one pass of one workload: the reference digests here, in
// the parent, then the workload in child processes of its own, so its
// peak RSS and first-op costs are its own.
func runOne(o options, w workload, seed int64, trace bool, stderr io.Writer) (*runResult, error) {
	runtime.GOMAXPROCS(passProcs(trace)) // the reference is part of setup_s
	start := time.Now()
	refs, shas, err := reference(w, seed, o.sc, trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	debug.FreeOSMemory() // the reference miners' heap is not the workload's
	refS := time.Since(start).Seconds()

	hex := make([]string, len(refs))
	for i, r := range refs {
		hex[i] = strconv.FormatUint(r, 16)
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scale", o.sc.name, "-ref", strings.Join(hex, ",")}
	if trace {
		args = append(args, "-trace", "1")
	} else {
		args = append(args, "-trace", "0")
	}
	spawn := func(extra ...string) (*runResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, append(args, extra...)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: child process: %w", w.name, err)
		}
		res := new(runResult)
		if err := json.Unmarshal(bytes.TrimSpace(out), res); err != nil {
			return nil, fmt.Errorf("%s: child output: %w", w.name, err)
		}
		return res, nil
	}
	var setups []float64
	if !trace {
		for i := 1; i < setupRuns; i++ {
			res, err := spawn("-setuponly")
			if err != nil {
				return nil, err
			}
			setups = append(setups, res.SetupS)
		}
	}
	res, err := spawn()
	if err != nil {
		return nil, err
	}
	setups = append(setups, res.SetupS)
	res.SetupS = refS + median(setups)
	res.InputSHA, res.Refs = shas, refs
	for i := range res.Metrics {
		if m := &res.Metrics[i]; m.Name == "setup_s" {
			m.Value, m.N = res.SetupS, len(setups)
		}
	}
	return res, nil
}

// suite runs the selected workloads, passes and seeds in turn and prints
// each result as it arrives.
func suite(o options, stdout, stderr io.Writer) ([]*runResult, error) {
	var runs []*runResult
	for _, seed := range o.seeds {
		digests := make(map[string]uint64)
		for _, w := range workloads {
			if o.workload != "" && o.workload != w.name {
				continue
			}
			for _, trace := range []bool{false, true} {
				if (o.trace == 0 && trace) || (o.trace == 1 && !trace) {
					continue
				}
				res, err := runOne(o, w, seed, trace, stderr)
				if err != nil {
					return nil, err
				}
				printResult(stdout, res)
				runs = append(runs, res)
				digests[w.name] = res.Refs[0]
			}
		}
		// Every op matched its workload's reference, so equal references
		// mean the resident and the spilled regime mined the same counts.
		r, okR := digests["quest-resident"]
		s, okS := digests["quest-spilled"]
		if okR && okS && r != s {
			return nil, fmt.Errorf("seed %d: quest-resident and quest-spilled mined different counts (%016x, %016x)", seed, r, s)
		}
	}
	return runs, nil
}

// failures lists what makes the runs incorrect.
func failures(runs []*runResult) []string {
	var bad []string
	for _, r := range runs {
		if r.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s seed %d: %d of %d ops failed: %s", r.Workload, r.Seed, r.Failed, r.Attempted, strings.Join(r.Errors, " | ")))
		}
	}
	return bad
}

// printResult prints every metric of one pass as "name unit value", with
// the sample count beside every median.
func printResult(w io.Writer, r *runResult) {
	pass := "measured pass, tracing off"
	if r.Trace {
		pass = "traced pass"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: %d ops attempted, %d failed (%.4f%%)\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, 100*ratio(float64(r.Failed), float64(r.Attempted)))
	for i, sha := range r.InputSHA {
		fmt.Fprintf(w, "input %d sha256 %s\n", i, sha)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s", m.Name, m.Unit, strconv.FormatFloat(m.Value, 'g', -1, 64))
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " %s", m.Note)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Flags {
		fmt.Fprintln(w, f)
	}
}

// declaration is BENCHMARK.json.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := new(declaration)
	if err := json.Unmarshal(raw, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// printDriverLine prints the one JSON object the benchmark contract asks
// for as the last line: exactly the declared metrics of the pass.
func printDriverLine(w io.Writer, r *runResult, decl *declaration, correct bool) error {
	want := decl.EndToEnd
	if r.Trace {
		want = decl.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.Attempted, r.Failed, make(map[string]value)}
	have := make(map[string]metric)
	for _, m := range r.Metrics {
		have[m.Name] = m
	}
	for _, d := range want {
		m, ok := have[d.Name]
		if !ok {
			return fmt.Errorf("%s did not report the declared metric %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// resultFile is what the suite writes to out/result.json and what
// -compare reads. The harness claims no gain: claim is always null.
type resultFile struct {
	Claim *string           `json:"claim"`
	Env   map[string]string `json:"env"`
	Runs  []*runResult      `json:"runs"`
}

func writeResults(path string, runs []*runResult) error {
	env := map[string]string{
		"go": runtime.Version(), "nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs_traced": strconv.Itoa(procs()), "gomaxprocs_measured": strconv.Itoa(passProcs(false)),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(raw))
	}
	raw, err := json.MarshalIndent(resultFile{Env: env, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) ([]*runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return f.Runs, nil
}
