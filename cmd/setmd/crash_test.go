package main

// The kill-and-restart crash harness. It builds the real setmd binary,
// runs it durable against a scratch datadir, SIGKILLs it at a
// randomized point while a mining job is in flight, restarts it on the
// same directory, and asserts the durability contract:
//
//   - committed datasets survive intact,
//   - a torn WAL tail (garbage appended after the kill) is truncated
//     silently and the log stays appendable,
//   - the interrupted job is resumed — from its iteration checkpoint
//     when one committed — and finishes bit-identical to an
//     uninterrupted in-process mine (the sweeps force a checkpoint every
//     pass, since their tens-of-ms jobs would pace to none;
//     TestCrashResumesPacedCheckpoint runs the default cadence on a job
//     long enough to earn one),
//   - no *.tmp debris is left anywhere in the datadir,
//   - the restarted server reports zero pinned buffer frames.
//
// The sweep length defaults to a CI-friendly handful of cycles;
// SETMD_CRASH_ITERS raises it for longer randomized soaks. (Crash
// points *inside* checkpoint and storage writes are exercised by the
// FaultStore-injected sweeps in internal/core's checkpoint tests; this
// harness kills the whole process.)

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"setm"
	"setm/internal/core"
	"setm/internal/gen"
)

// buildSetmd compiles the real binary under test into dir.
func buildSetmd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "setmd-under-test")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// crashDataset is sized so a budget-squeezed job runs long enough for
// kills to land mid-iteration, yet completes in well under a second.
func crashDataset() *core.Dataset {
	rng := rand.New(rand.NewSource(97))
	d := &core.Dataset{}
	id := int64(0)
	for i := 0; i < 8000; i++ {
		id += 1 + int64(rng.Intn(3))
		n := 1 + rng.Intn(6)
		items := make([]core.Item, n)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(9) + rng.Intn(7)*rng.Intn(3))
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: id, Items: items})
	}
	return d
}

// setmdProc is one live server process under the harness.
type setmdProc struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer
}

func startSetmd(t *testing.T, bin, datadir string, flags ...string) *setmdProc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	logs := &bytes.Buffer{}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-datadir", datadir, "-drain-timeout", "10s"}, flags...)...)
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start setmd: %v", err)
	}
	p := &setmdProc{cmd: cmd, base: "http://" + addr, logs: logs}
	t.Cleanup(func() { p.kill() }) // harmless if already gone

	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("setmd never came up on %s: %v\nlogs:\n%s", addr, err, logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill delivers SIGKILL — the crash under test — and reaps the process.
func (p *setmdProc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// stop drains gracefully via SIGTERM and checks a clean exit.
func (p *setmdProc) stop(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("setmd exited dirty after SIGTERM: %v\nlogs:\n%s", err, p.logs)
		}
	case <-time.After(20 * time.Second):
		p.kill()
		t.Fatalf("setmd did not drain after SIGTERM\nlogs:\n%s", p.logs)
	}
}

func (p *setmdProc) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v\nlogs:\n%s", path, err, p.logs)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func (p *setmdProc) post(t *testing.T, path, contentType string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(p.base+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v\nlogs:\n%s", path, err, p.logs)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func crashIters() int {
	if v := os.Getenv("SETMD_CRASH_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// everyPass is the cadence flag of the sweeps: their jobs take tens of
// milliseconds, which the default cadence would never checkpoint.
var everyPass = []string{"-checkpoint-interval", "1"}

// upload registers sales text and returns the version id.
func (p *setmdProc) upload(t *testing.T, sales string) string {
	t.Helper()
	code, body := p.post(t, "/datasets", "text/plain", sales)
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	var ds struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &ds); err != nil || ds.Version == "" {
		t.Fatalf("upload response %s: %v", body, err)
	}
	return ds.Version
}

// submit posts a job request body.
func (p *setmdProc) submit(t *testing.T, req string) {
	t.Helper()
	code, body := p.post(t, "/jobs", "application/json", req)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: %d %s", req, code, body)
	}
}

// waitDone blocks until the job is terminal and requires it to be done.
func (p *setmdProc) waitDone(t *testing.T, id string) {
	t.Helper()
	var fin struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := p.get(t, "/jobs/"+id+"?wait=1")
		if err := json.Unmarshal(body, &fin); err != nil {
			t.Fatalf("job status %s: %v", body, err)
		}
		if fin.State == "done" || fin.State == "failed" || fin.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck in %q", id, fin.State)
		}
	}
	if fin.State != "done" {
		t.Fatalf("%s finished %q: %s\nlogs:\n%s", id, fin.State, fin.Error, p.logs)
	}
}

// assertResult fetches the job's result and compares every C_k to want.
func (p *setmdProc) assertResult(t *testing.T, id string, want *core.Result) {
	t.Helper()
	code, body := p.get(t, "/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	var got core.Result
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s has %d iterations after the crash, want %d", id, len(got.Counts), len(want.Counts))
	}
	for k := range want.Counts {
		if !countsEqual(want.Counts[k], got.Counts[k]) {
			t.Fatalf("C_%d differs after the crash", k+1)
		}
	}
}

// metrics scrapes /metrics and requires each line to be present.
func (p *setmdProc) metrics(t *testing.T, lines ...string) string {
	t.Helper()
	_, body := p.get(t, "/metrics")
	for _, line := range lines {
		if !bytes.Contains(body, []byte(line+"\n")) {
			t.Fatalf("metrics lack %q:\n%s", line, body)
		}
	}
	return string(body)
}

func assertNoTmpDebris(t *testing.T, datadir string) {
	t.Helper()
	filepath.WalkDir(datadir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp debris survived restart: %s", path)
		}
		return nil
	})
}

// TestCrashRestartSweep is the harness entry point.
func TestCrashRestartSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness needs a built binary and real kills; skipped in -short")
	}
	bin := buildSetmd(t, t.TempDir())
	d := crashDataset()
	var sales bytes.Buffer
	if err := setm.WriteDataset(&sales, d); err != nil {
		t.Fatal(err)
	}
	want, err := core.MineMemory(d, core.Options{MinSupportCount: 4})
	if err != nil {
		t.Fatal(err)
	}

	iters := crashIters()
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < iters; i++ {
		// The mine takes a few tens of ms at this budget: delays in
		// [0, 150) ms land kills before, during, and after the job, so
		// the sweep covers resume-from-checkpoint, re-mine-from-scratch,
		// and restore-done-from-envelope. Cycle 0 kills immediately —
		// the guaranteed mid-flight case.
		i, delay := i, time.Duration(rng.Intn(150))*time.Millisecond
		if i == 0 {
			delay = 0
		}
		tearTail := i%3 == 1 // every third cycle also corrupts the WAL tail
		t.Run(fmt.Sprintf("cycle-%d-delay-%v-torn-%v", i, delay, tearTail), func(t *testing.T) {
			datadir := t.TempDir()
			p := startSetmd(t, bin, datadir, everyPass...)
			version := p.upload(t, sales.String())
			// A squeezed budget makes the job spill and checkpoint slowly
			// enough for the kill to land mid-run on most cycles.
			p.submit(t, fmt.Sprintf(`{"dataset":%q,"minsup_count":4,"membudget":32768}`, version))

			time.Sleep(delay)
			p.kill() // the crash: no drain, no flush, SIGKILL

			if tearTail {
				f, err := os.OpenFile(filepath.Join(datadir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte("\x13\x37torn-tail-garbage"))
				f.Close()
			}

			// Restart on the same directory and check every invariant.
			p2 := startSetmd(t, bin, datadir, everyPass...)
			code, body := p2.get(t, "/datasets")
			if code != http.StatusOK || !bytes.Contains(body, []byte(version)) {
				t.Fatalf("dataset lost across crash: %d %s\nlogs:\n%s", code, body, p2.logs)
			}
			p2.waitDone(t, "job-1")
			p2.assertResult(t, "job-1", want)

			m := p2.metrics(t, "setmd_pool_pinned_frames 0")
			resumed := strings.Contains(m, "setmd_jobs_resumed 1\n")
			t.Logf("kill after %v: job done (resumed=%v, from a checkpoint=%v, torn tail=%v)",
				delay, resumed, strings.Contains(m, "setmd_checkpoint_resumes 1\n"), tearTail)
			if i == 0 && !resumed {
				t.Error("cycle 0 kills before the job can finish; it must take the resume path")
			}
			assertNoTmpDebris(t, datadir)
			p2.stop(t)
		})
	}
}

// crashDelta continues crashDataset with disjoint transaction ids (the
// append precondition) drawn from the same item universe, so the delta
// shifts border sets without changing the dataset's character.
func crashDelta() *core.Dataset {
	rng := rand.New(rand.NewSource(1995))
	d := &core.Dataset{}
	id := int64(100000)
	for i := 0; i < 400; i++ {
		id += 1 + int64(rng.Intn(3))
		n := 1 + rng.Intn(6)
		items := make([]core.Item, n)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(9) + rng.Intn(7)*rng.Intn(3))
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: id, Items: items})
	}
	return d
}

// TestCrashMidDeltaSweep kills the server while an incremental refresh
// is in flight: the parent is mined (priming its border snapshot in the
// cache), a delta is appended, and the SIGKILL lands around the mine of
// the derived version. The restart must replay the append from the WAL
// (re-deriving the combined dataset from the parent plus the journaled
// delta blob), finish the interrupted job, and produce counts
// bit-identical to an uninterrupted cold mine of base+delta — whether
// the resumed job takes the delta path or degrades to a full re-mine.
func TestCrashMidDeltaSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness needs a built binary and real kills; skipped in -short")
	}
	bin := buildSetmd(t, t.TempDir())
	base, delta := crashDataset(), crashDelta()
	var baseSales, deltaSales bytes.Buffer
	if err := setm.WriteDataset(&baseSales, base); err != nil {
		t.Fatal(err)
	}
	if err := setm.WriteDataset(&deltaSales, delta); err != nil {
		t.Fatal(err)
	}
	combined := &core.Dataset{}
	combined.Transactions = append(combined.Transactions, base.Transactions...)
	combined.Transactions = append(combined.Transactions, delta.Transactions...)
	want, err := core.MineMemory(combined, core.Options{MinSupportCount: 4})
	if err != nil {
		t.Fatal(err)
	}

	iters := crashIters()
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < iters; i++ {
		// The refresh (append + delta mine) takes a few tens of ms at a
		// squeezed budget: delays in [0, 100) ms land kills between the
		// append and the mine, mid-mine, and after completion. Cycle 0
		// kills immediately — guaranteed mid-flight.
		i, delay := i, time.Duration(rng.Intn(100))*time.Millisecond
		if i == 0 {
			delay = 0
		}
		t.Run(fmt.Sprintf("cycle-%d-delay-%v", i, delay), func(t *testing.T) {
			datadir := t.TempDir()
			p := startSetmd(t, bin, datadir, everyPass...)
			version := p.upload(t, baseSales.String())
			// Prime the parent: its cached result carries the border
			// snapshot the incremental path patches against.
			p.submit(t, fmt.Sprintf(`{"dataset":%q,"minsup_count":4}`, version))
			p.waitDone(t, "job-1")

			code, body := p.post(t, "/datasets/"+version+"/append", "text/plain", deltaSales.String())
			if code != http.StatusOK {
				t.Fatalf("append: %d %s", code, body)
			}
			var der struct {
				Version string `json:"version"`
				Parent  string `json:"parent"`
			}
			if err := json.Unmarshal(body, &der); err != nil || der.Version == "" {
				t.Fatalf("append response %s: %v", body, err)
			}
			if der.Parent != version {
				t.Fatalf("derived parent = %q, want %q", der.Parent, version)
			}
			// The refresh under test: a squeezed budget slows any
			// fallback re-mine so kills land mid-run on most cycles.
			p.submit(t, fmt.Sprintf(`{"dataset":%q,"minsup_count":4,"membudget":32768}`, der.Version))

			time.Sleep(delay)
			p.kill() // the crash: no drain, no flush, SIGKILL mid-refresh

			// Restart on the same directory: the append record and delta
			// blob must replay, then the interrupted refresh must finish.
			p2 := startSetmd(t, bin, datadir, everyPass...)
			code, body = p2.get(t, "/datasets/"+der.Version)
			if code != http.StatusOK {
				t.Fatalf("derived version lost across crash: %d %s\nlogs:\n%s", code, body, p2.logs)
			}
			var der2 struct {
				Parent    string `json:"parent"`
				DeltaTxns int    `json:"delta_transactions"`
			}
			if err := json.Unmarshal(body, &der2); err != nil {
				t.Fatal(err)
			}
			if der2.Parent != version || der2.DeltaTxns != delta.NumTransactions() {
				t.Fatalf("replayed derived dataset: parent=%q delta_txns=%d, want parent=%q delta_txns=%d",
					der2.Parent, der2.DeltaTxns, version, delta.NumTransactions())
			}
			p2.waitDone(t, "job-2")
			p2.assertResult(t, "job-2", want)
			p2.metrics(t, "setmd_pool_pinned_frames 0")
			t.Logf("kill after %v: refresh done", delay)
			assertNoTmpDebris(t, datadir)
			p2.stop(t)
		})
	}
}

// TestCrashResumesPacedCheckpoint runs the default cadence on a job long
// enough to earn a checkpoint — half of T10I4D100K under a 1 MiB budget:
// passes 1–2 are several times the predicted cost of writing R_2 — kills
// the server the moment the manifest commits, and requires the restart to
// continue from it; a second server killed before any pass finished has
// nothing to continue from and re-mines. Both end in the reference result.
func TestCrashResumesPacedCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness needs a built binary and real kills; skipped in -short")
	}
	bin := buildSetmd(t, t.TempDir())
	d := gen.Quest(gen.T10I4D100K(0.5, 1))
	var sales bytes.Buffer
	if err := setm.WriteDataset(&sales, d); err != nil {
		t.Fatal(err)
	}
	want, err := core.MineMemory(d, core.Options{MinSupportFrac: 0.0025})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		awaitCkpt   bool
		wantResumes string
	}{
		{"killed-after-first-checkpoint", true, "setmd_checkpoint_resumes 1"},
		{"killed-before-any-checkpoint", false, "setmd_checkpoint_resumes 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			datadir := t.TempDir()
			p := startSetmd(t, bin, datadir)
			version := p.upload(t, sales.String())
			p.submit(t, fmt.Sprintf(`{"dataset":%q,"minsup":0.0025,"membudget":1048576}`, version))
			manifest := filepath.Join(datadir, "checkpoints", "job-1", "MANIFEST.json")
			for deadline := time.Now().Add(30 * time.Second); tc.awaitCkpt; time.Sleep(time.Millisecond) {
				if _, err := os.Stat(manifest); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no paced checkpoint within 30 s\nmetrics:\n%s", p.metrics(t))
				}
			}
			p.kill()
			if _, err := os.Stat(manifest); (err == nil) != tc.awaitCkpt {
				t.Fatalf("manifest on disk after the kill: err=%v, want present=%v (the job outran the kill)", err, tc.awaitCkpt)
			}

			p2 := startSetmd(t, bin, datadir)
			p2.waitDone(t, "job-1")
			p2.assertResult(t, "job-1", want)
			p2.metrics(t, "setmd_jobs_resumed 1", tc.wantResumes, "setmd_pool_pinned_frames 0")
			assertNoTmpDebris(t, datadir)
			if _, err := os.Stat(filepath.Dir(manifest)); !os.IsNotExist(err) {
				t.Errorf("checkpoint directory survived the job's completion (err=%v)", err)
			}
			p2.stop(t)
		})
	}
}

// countsEqual compares one count relation without reflect: the wire
// form already normalized ordering (both sides come from the same
// deterministic pipeline).
func countsEqual(a, b []core.ItemsetCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}
