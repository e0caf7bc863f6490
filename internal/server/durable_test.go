package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"setm"
	"setm/internal/core"
	"setm/internal/wal"
)

// newDurableServer boots a durable server over dir and returns it with
// a test client. The caller owns restarts: close() tears down the HTTP
// front end and the WAL so a successor can Open the same directory.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *client, func()) {
	t.Helper()
	cfg.DataDir = dir
	cfg.NoSync = true // tests exercise logic, not the disk
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	ts := httptest.NewServer(s)
	closed := false
	closeFn := func() {
		if closed {
			return
		}
		closed = true
		ts.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(drainCtx)
		s.Close()
	}
	t.Cleanup(closeFn)
	return s, &client{t: t, base: ts.URL, http: ts.Client()}, closeFn
}

// appendWAL appends hand-crafted records to a closed server's journal —
// the test's stand-in for a crash that left the job mid-flight.
func appendWAL(t *testing.T, dir string, recs ...walRecord) {
	t.Helper()
	bufs := make([][]byte, len(recs))
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	appendWALRaw(t, dir, bufs...)
}

// appendWALRaw appends payloads as they are: records of a shape this
// build no longer writes.
func appendWALRaw(t *testing.T, dir string, recs ...[]byte) {
	t.Helper()
	w, err := wal.Open(filepath.Join(dir, walFileName), nil, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
}

// jobRecordStates replays dir's journal and returns, per job id, the
// State of each of its records in journal order.
func jobRecordStates(t *testing.T, dir string) map[string][]string {
	t.Helper()
	states := make(map[string][]string)
	if _, err := wal.Replay(filepath.Join(dir, walFileName), func(rec []byte) error {
		var r walRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			return err
		}
		if r.Type == recJob {
			states[r.JobID] = append(states[r.JobID], r.State)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return states
}

// assertNoTmpDebris walks the datadir for leftover *.tmp files.
func assertNoTmpDebris(t *testing.T, dir string) {
	t.Helper()
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			t.Errorf("temp debris survived: %s", path)
		}
		return nil
	})
}

func metricsText(t *testing.T, c *client) string {
	t.Helper()
	code, raw := c.do("GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return string(raw)
}

// TestDurableRestartRestoresState: a clean restart must rebuild the
// dataset registry, the job ledger (done jobs with their results, from
// the spilled envelopes), the result cache, and the job id sequence.
func TestDurableRestartRestoresState(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(51, 1200)
	want, err := core.MineMemory(d, core.Options{MinSupportCount: 10})
	if err != nil {
		t.Fatal(err)
	}

	_, c1, close1 := newDurableServer(t, dir, Config{})
	ds := c1.upload(d)
	var st jobStatus
	if code := c1.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 10}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if fin := c1.waitDone(st.ID); fin.State != stateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	close1()

	// Age the envelope: a build before PR 27 wrote an Exchange field into
	// every plan. Unknown JSON fields are ignored on the way back in.
	envs, _ := filepath.Glob(filepath.Join(dir, resultsDirName, "*.json"))
	if len(envs) != 1 {
		t.Fatalf("result envelopes on disk: %v, want one", envs)
	}
	env, err := os.ReadFile(envs[0])
	if err != nil {
		t.Fatal(err)
	}
	aged := bytes.ReplaceAll(env, []byte(`"Plan":{`), []byte(`"Plan":{"Exchange":"none",`))
	if bytes.Equal(aged, env) {
		t.Fatal("setup: no plan in the envelope to age")
	}
	if err := os.WriteFile(envs[0], aged, 0o644); err != nil {
		t.Fatal(err)
	}

	_, c2, _ := newDurableServer(t, dir, Config{})
	var dss []dataset
	if code := c2.doJSON("GET", "/datasets", nil, &dss); code != http.StatusOK || len(dss) != 1 {
		t.Fatalf("after restart: %d datasets (status %d), want 1", len(dss), code)
	}
	if dss[0].Version != ds.Version || dss[0].Transactions != ds.Transactions {
		t.Fatalf("restored dataset %+v differs from registered %+v", dss[0], ds)
	}

	// The finished job's ledger entry and result survive the restart.
	var rst jobStatus
	if code := c2.doJSON("GET", "/jobs/"+st.ID, nil, &rst); code != http.StatusOK {
		t.Fatalf("restored job status: %d", code)
	}
	if rst.State != stateDone || len(rst.Iterations) == 0 {
		t.Fatalf("restored job: state=%s iters=%d, want done with stats", rst.State, len(rst.Iterations))
	}
	assertSameCounts(t, "restored-result", want, c2.result(st.ID))

	// A repeat query is a cache hit — the envelope re-warmed the cache.
	var st2 jobStatus
	if code := c2.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 10}, &st2); code != http.StatusOK {
		t.Fatalf("repeat submit after restart: status %d, want 200 cache hit", code)
	}
	if !st2.Cached || st2.State != stateDone {
		t.Fatalf("repeat after restart: state=%s cached=%v", st2.State, st2.Cached)
	}
	// The id sequence continues past replayed jobs instead of colliding.
	if st2.ID != "job-2" {
		t.Fatalf("restarted id sequence gave %s, want job-2", st2.ID)
	}
	assertNoTmpDebris(t, dir)
}

// interruptedJobFixture registers a dataset through a durable server,
// then forges the WAL records of a job that was submitted and running
// when the process died, optionally with an intact checkpoint at k=2.
func interruptedJobFixture(t *testing.T, dir string, d *core.Dataset, minSup int64, withCheckpoint bool) (version string) {
	t.Helper()
	_, c, closeFn := newDurableServer(t, dir, Config{})
	version = c.upload(d).Version
	closeFn()

	appendWAL(t, dir,
		walRecord{Type: recJob, JobID: "job-1", Dataset: version, State: stateQueued,
			Est: 1 << 20, Opts: &walOpts{MinSupCount: minSup}},
		walRecord{Type: recJob, JobID: "job-1", State: stateRunning},
	)
	if withCheckpoint {
		ckdir := filepath.Join(dir, checkpointsDirName, "job-1")
		_, err := core.MineAuto(d, core.Options{
			MinSupportCount: minSup, MaxPatternLen: 2,
			Checkpoint: &core.CheckpointConfig{Dir: ckdir, Interval: 1, NoSync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if cp, err := core.LoadCheckpoint(ckdir); err != nil || cp == nil || cp.K != 2 {
			t.Fatalf("fixture checkpoint: cp=%v err=%v, want intact k=2", cp, err)
		}
	}
	return version
}

// TestDurableResumeFromCheckpoint: a job interrupted mid-run resumes
// from its iteration checkpoint on restart and completes bit-identical
// to an uninterrupted mine.
func TestDurableResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(53, 1500)
	const minSup = 9
	interruptedJobFixture(t, dir, d, minSup, true)

	want, err := core.MineMemory(d, core.Options{MinSupportCount: minSup})
	if err != nil {
		t.Fatal(err)
	}

	_, c, _ := newDurableServer(t, dir, Config{})
	fin := c.waitDone("job-1")
	if fin.State != stateDone {
		t.Fatalf("resumed job finished %s: %s", fin.State, fin.Error)
	}
	assertSameCounts(t, "resumed-vs-mine", want, c.result("job-1"))
	if len(fin.Iterations) != len(want.Stats) {
		t.Fatalf("resumed job reports %d iterations, want %d (checkpointed + live)",
			len(fin.Iterations), len(want.Stats))
	}
	m := metricsText(t, c)
	for _, line := range []string{"setmd_jobs_resumed 1", "setmd_checkpoint_resumes 1", "setmd_checkpoints_written 0", "setmd_pool_pinned_frames 0"} {
		if !strings.Contains(m, line) {
			t.Errorf("metrics missing %q:\n%s", line, m)
		}
	}
	// Terminal jobs retire their checkpoints; nothing half-written stays.
	if _, err := os.Stat(filepath.Join(dir, checkpointsDirName, "job-1")); !os.IsNotExist(err) {
		t.Errorf("checkpoint dir survived the job's completion (err=%v)", err)
	}
	assertNoTmpDebris(t, dir)
}

// TestDurableResumeMissingRunFile: a checkpoint manifest whose run file
// vanished must degrade to a full re-mine with a correct result — not a
// crash, not a failed job.
func TestDurableResumeMissingRunFile(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(57, 1200)
	const minSup = 8
	interruptedJobFixture(t, dir, d, minSup, true)
	runs, err := filepath.Glob(filepath.Join(dir, checkpointsDirName, "job-1", "rk-*.run"))
	if err != nil || len(runs) == 0 {
		t.Fatalf("fixture has no checkpoint run files (err=%v)", err)
	}
	for _, r := range runs {
		os.Remove(r)
	}

	want, err := core.MineMemory(d, core.Options{MinSupportCount: minSup})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := newDurableServer(t, dir, Config{})
	fin := c.waitDone("job-1")
	if fin.State != stateDone {
		t.Fatalf("job with damaged checkpoint finished %s: %s", fin.State, fin.Error)
	}
	assertSameCounts(t, "remine-vs-mine", want, c.result("job-1"))
}

// TestDurableResumeRefusesVersion1Checkpoint: a checkpoint written by a
// build whose R_k run held bit-packed keys (manifest version 1) is
// refused, and the job re-mines to the same counts instead of resuming.
func TestDurableResumeRefusesVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(61, 1200)
	const minSup = 8
	interruptedJobFixture(t, dir, d, minSup, true)
	path := filepath.Join(dir, checkpointsDirName, "job-1", "MANIFEST.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(data, []byte(`"version":2,`), []byte(`"version":1,`), 1)
	if bytes.Equal(v1, data) {
		t.Fatalf("fixture manifest is not version 2: %s", data)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadCheckpoint(filepath.Dir(path)); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("version-1 manifest loaded: %v", err)
	}

	want, err := core.MineMemory(d, core.Options{MinSupportCount: minSup})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := newDurableServer(t, dir, Config{})
	fin := c.waitDone("job-1")
	if fin.State != stateDone {
		t.Fatalf("job with a version-1 checkpoint finished %s: %s", fin.State, fin.Error)
	}
	assertSameCounts(t, "remine-vs-mine", want, c.result("job-1"))
	if m := metricsText(t, c); !strings.Contains(m, "setmd_checkpoint_resumes 0") {
		t.Errorf("a version-1 checkpoint was resumed from:\n%s", m)
	}
}

// TestDurableResumeWithoutCheckpoint: a job that died before its first
// checkpoint resumes as a plain re-mine.
func TestDurableResumeWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(59, 1000)
	const minSup = 8
	interruptedJobFixture(t, dir, d, minSup, false)

	want, err := core.MineMemory(d, core.Options{MinSupportCount: minSup})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := newDurableServer(t, dir, Config{})
	fin := c.waitDone("job-1")
	if fin.State != stateDone {
		t.Fatalf("resumed job finished %s: %s", fin.State, fin.Error)
	}
	assertSameCounts(t, "fresh-resume-vs-mine", want, c.result("job-1"))
	// A re-mine is a resumed job, not a resumed checkpoint.
	m := metricsText(t, c)
	for _, line := range []string{"setmd_jobs_resumed 1", "setmd_checkpoint_resumes 0"} {
		if !strings.Contains(m, line) {
			t.Errorf("metrics missing %q:\n%s", line, m)
		}
	}
}

// TestJobJournalsWhatReplayReads: a cold job journals its submission and
// its terminal state and nothing between, a cache hit the same two; a mine
// of milliseconds under the default cadence writes no checkpoint and never
// creates its directory, and a forced cadence shows in /metrics and the
// job's status.
func TestJobJournalsWhatReplayReads(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(73, 1200)
	_, c, closeFn := newDurableServer(t, dir, Config{})
	ds := c.upload(d)
	for i, wantCode := range []int{http.StatusAccepted, http.StatusOK} {
		var st jobStatus
		if code := c.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 10}, &st); code != wantCode {
			t.Fatalf("submit %d: status %d, want %d", i, code, wantCode)
		}
		if fin := c.waitDone(st.ID); fin.State != stateDone {
			t.Fatalf("%s finished %s: %s", st.ID, fin.State, fin.Error)
		}
	}
	got := jobRecordStates(t, dir)
	for _, id := range []string{"job-1", "job-2"} {
		if states := got[id]; len(states) != 2 || states[0] != stateQueued || states[1] != stateDone {
			t.Errorf("%s journaled %v, want [queued done]", id, states)
		}
	}
	if m := metricsText(t, c); !strings.Contains(m, "setmd_checkpoints_written 0\n") || !strings.Contains(m, "setmd_checkpoint_bytes 0\n") {
		t.Errorf("a mine of milliseconds wrote checkpoints:\n%s", m)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, checkpointsDirName)); err != nil || len(entries) != 0 {
		t.Errorf("checkpoints/ holds %v (err=%v), want nothing ever created", entries, err)
	}
	closeFn()

	_, c2, _ := newDurableServer(t, dir, Config{CheckpointInterval: 1})
	var st jobStatus
	if code := c2.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 11}, &st); code != http.StatusAccepted {
		t.Fatalf("submit at interval 1: status %d", code)
	}
	fin := c2.waitDone(st.ID)
	wrote := 0
	for _, it := range fin.Iterations {
		if it.CheckpointBytes > 0 {
			wrote++
		}
	}
	if wrote == 0 {
		t.Fatalf("interval 1: no iteration reports checkpoint_bytes: %+v", fin.Iterations)
	}
	if m := metricsText(t, c2); !strings.Contains(m, "setmd_checkpoints_written "+strconv.Itoa(wrote)+"\n") {
		t.Errorf("metrics disagree with the job's %d checkpointed iterations:\n%s", wrote, m)
	}
}

// TestBootReplaysRetiredJobRecords: a journal written before "running" and
// "iter" records were retired still boots, and the job they describe is
// re-enqueued and finishes.
func TestBootReplaysRetiredJobRecords(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(79, 1000)
	const minSup = 8
	_, c, closeFn := newDurableServer(t, dir, Config{})
	version := c.upload(d).Version
	closeFn()
	appendWALRaw(t, dir,
		[]byte(`{"type":"job","job_id":"job-1","dataset":"`+version+`","state":"queued","est":1048576,"opts":{"minsup_count":8}}`),
		[]byte(`{"type":"job","job_id":"job-1","state":"running"}`),
		[]byte(`{"type":"job","job_id":"job-1","state":"iter","k":1}`),
		[]byte(`{"type":"job","job_id":"job-1","state":"iter","k":2}`),
		[]byte(`{"type":"job","job_id":"job-1","state":"iter","k":3}`),
	)

	want, err := core.MineMemory(d, core.Options{MinSupportCount: minSup})
	if err != nil {
		t.Fatal(err)
	}
	_, c2, _ := newDurableServer(t, dir, Config{})
	fin := c2.waitDone("job-1")
	if fin.State != stateDone {
		t.Fatalf("job behind retired records finished %s: %s", fin.State, fin.Error)
	}
	assertSameCounts(t, "retired-records-vs-mine", want, c2.result("job-1"))
	if states := jobRecordStates(t, dir)["job-1"]; len(states) != 6 || states[5] != stateDone {
		t.Errorf("job-1 journal reads %v, want the five old records and done", states)
	}
}

// TestDurableDuplicateDatasetRecords: replaying a journal holding the
// same dataset registration twice (a crash can land between the append
// and the response, and the client retries) must be idempotent.
func TestDurableDuplicateDatasetRecords(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(61, 600)
	_, c1, close1 := newDurableServer(t, dir, Config{})
	ds := c1.upload(d)
	close1()
	appendWAL(t, dir, walRecord{
		Type: recDataset, Version: ds.Version,
		Transactions: ds.Transactions, SalesRows: ds.SalesRows, AvgBasket: ds.AvgBasket,
	})

	_, c2, _ := newDurableServer(t, dir, Config{})
	var dss []dataset
	if code := c2.doJSON("GET", "/datasets", nil, &dss); code != http.StatusOK || len(dss) != 1 {
		t.Fatalf("duplicate records yielded %d datasets (status %d), want 1", len(dss), code)
	}
	var st jobStatus
	if code := c2.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 12}, &st); code != http.StatusAccepted {
		t.Fatalf("submit on deduped dataset: status %d", code)
	}
	if fin := c2.waitDone(st.ID); fin.State != stateDone {
		t.Fatalf("job on deduped dataset finished %s: %s", fin.State, fin.Error)
	}
}

// TestDurableEmptyWAL: a restart over an empty (zero-length) journal is
// a clean cold start, and the directory is immediately usable.
func TestDurableEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, _ := newDurableServer(t, dir, Config{})
	var dss []dataset
	if code := c.doJSON("GET", "/datasets", nil, &dss); code != http.StatusOK || len(dss) != 0 {
		t.Fatalf("empty WAL boot lists %d datasets (status %d)", len(dss), code)
	}
	d := testDataset(63, 400)
	ds := c.upload(d)
	var st jobStatus
	if code := c.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 6}, &st); code != http.StatusAccepted {
		t.Fatalf("submit after empty boot: status %d", code)
	}
	if fin := c.waitDone(st.ID); fin.State != stateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
}

// TestDurableTornWALTail: garbage after the last intact record is a
// torn tail — boot must silently truncate it, keep every committed
// record, and leave the log appendable.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(67, 600)
	_, c1, close1 := newDurableServer(t, dir, Config{})
	ds := c1.upload(d)
	close1()
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, c2, _ := newDurableServer(t, dir, Config{})
	var dss []dataset
	if code := c2.doJSON("GET", "/datasets", nil, &dss); code != http.StatusOK || len(dss) != 1 {
		t.Fatalf("after torn tail: %d datasets (status %d), want 1", len(dss), code)
	}
	if dss[0].Version != ds.Version {
		t.Fatalf("dataset %s lost to torn tail", ds.Version)
	}
	// The truncated log must accept new records (a job journals fine).
	var st jobStatus
	if code := c2.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 6}, &st); code != http.StatusAccepted {
		t.Fatalf("submit after torn-tail truncation: status %d", code)
	}
	if fin := c2.waitDone(st.ID); fin.State != stateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if s2.met.walAppendErrors.Load() != 0 {
		t.Fatalf("wal append errors after truncation: %d", s2.met.walAppendErrors.Load())
	}
}

// TestDeleteDataset: the in-use guard, the purge, and its durability.
func TestDeleteDataset(t *testing.T) {
	dir := t.TempDir()
	big := testDataset(69, 20000)
	_, c, close1 := newDurableServer(t, dir, Config{JobMemBudget: 16 << 10})
	ds := c.upload(big)

	// A long-running job pins the dataset: DELETE answers 409.
	var st jobStatus
	if code := c.doJSON("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 2, MemBudget: 16 << 10}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if code, raw := c.do("DELETE", "/datasets/"+ds.Version, nil); code != http.StatusConflict {
		t.Fatalf("delete of in-use dataset: status %d (%s), want 409", code, raw)
	}
	c.do("DELETE", "/jobs/"+st.ID, nil)
	c.waitDone(st.ID)

	if code, raw := c.do("DELETE", "/datasets/"+ds.Version, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", code, raw)
	}
	if code, _ := c.do("GET", "/datasets/"+ds.Version, nil); code != http.StatusNotFound {
		t.Fatalf("deleted dataset still served: status %d", code)
	}
	if code, _ := c.doJSONCode("POST", "/jobs", jobRequest{Dataset: ds.Version, MinSupCount: 5}); code != http.StatusNotFound {
		t.Fatalf("job on deleted dataset: status %d, want 404", code)
	}
	if _, err := os.Stat(filepath.Join(dir, datasetsDirName, ds.Version+".sales")); !os.IsNotExist(err) {
		t.Fatalf("dataset blob survived deletion (err=%v)", err)
	}
	if code, _ := c.do("DELETE", "/datasets/"+ds.Version, nil); code != http.StatusNotFound {
		t.Fatal("second delete did not 404")
	}
	close1()

	// Deletion is journaled: a restart must not resurrect the dataset.
	_, c2, _ := newDurableServer(t, dir, Config{})
	var dss []dataset
	if code := c2.doJSON("GET", "/datasets", nil, &dss); code != http.StatusOK || len(dss) != 0 {
		t.Fatalf("deleted dataset resurrected on restart: %d datasets", len(dss))
	}
}

// TestJobTimeout: a timeout_ms deadline fails the job with a distinct
// reason and counter, and leaves no pinned frames behind.
func TestJobTimeout(t *testing.T) {
	d := testDataset(71, 20000)
	s := New(Config{JobMemBudget: 16 << 10})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	ds := c.upload(d)

	var st jobStatus
	if code := c.doJSON("POST", "/jobs", jobRequest{
		Dataset: ds.Version, MinSupCount: 2, MemBudget: 16 << 10, TimeoutMs: 1,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	fin := c.waitDone(st.ID)
	if fin.State != stateFailed || !strings.Contains(fin.Error, "timeout") {
		t.Fatalf("timed-out job: state=%s err=%q, want failed with a timeout reason", fin.State, fin.Error)
	}
	m := metricsText(t, c)
	for _, line := range []string{"setmd_jobs_timed_out 1", "setmd_pool_pinned_frames 0"} {
		if !strings.Contains(m, line) {
			t.Errorf("metrics missing %q:\n%s", line, m)
		}
	}
}

// TestWALRecordRoundTrip pins the journal codec: every field written at
// submit survives marshal/unmarshal, since resume fidelity depends on it.
func TestWALRecordRoundTrip(t *testing.T) {
	in := walRecord{
		Type: recJob, JobID: "job-7", Dataset: "ds-abc", State: stateQueued,
		Est: 12345, Opts: &walOpts{
			MinSupFrac: 0.02, MinSupCount: 9, MaxLen: 4,
			MemBudget: 1 << 20, MaxWorkers: 3, TimeoutMs: 1500,
		},
	}
	b, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out walRecord
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.JobID != in.JobID || out.Dataset != in.Dataset ||
		out.State != in.State || out.Est != in.Est || out.Opts == nil || *out.Opts != *in.Opts {
		t.Fatalf("round trip lost fields:\n in %+v (%+v)\nout %+v (%+v)", in, in.Opts, out, out.Opts)
	}
	opts := out.Opts.options()
	if opts.MinSupportFrac != 0.02 || opts.MinSupportCount != 9 || opts.MaxPatternLen != 4 ||
		opts.MemoryBudget != 1<<20 || opts.MaxWorkers != 3 {
		t.Fatalf("walOpts.options() mismatch: %+v", opts)
	}
	if !bytes.Contains(b, []byte(`"minsup_count":9`)) {
		t.Fatalf("wire form unexpected: %s", b)
	}
	_ = setm.Options(opts) // the journaled options are the public ones
}
