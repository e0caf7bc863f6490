// Checkpoint/resume conformance: a mine interrupted at ANY iteration
// boundary and resumed from its durable checkpoint must produce count
// relations bit-identical to an uninterrupted MineAuto run — across
// memory regimes, budgets and the wide-pattern fallback — and every integrity failure of the checkpoint
// files must surface as ErrCheckpoint (so callers fall back to a full
// re-mine), never as a crash or a wrong answer.
package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"setm/internal/core"
	"setm/internal/storage"
)

// ckptDataset builds a deterministic random dataset.
func ckptDataset(seed int64, txns, maxLen, nItems int) *core.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &core.Dataset{}
	id := int64(0)
	for i := 0; i < txns; i++ {
		id += 1 + int64(rng.Intn(5))
		ln := 1 + rng.Intn(maxLen)
		items := make([]core.Item, ln)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(nItems))
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: id, Items: items})
	}
	return d
}

// writeCheckpointAt mines with MaxPatternLen = k so the checkpoint left
// in dir describes iteration <= k, exactly as a crash after iteration k
// would have (the per-iteration manifests are byte-wise replaced, so a
// capped run's last manifest equals the uncapped run's manifest at the
// same k).
func writeCheckpointAt(t *testing.T, d *core.Dataset, opts core.Options, k int, dir string) *core.Checkpoint {
	t.Helper()
	opts.MaxPatternLen = k
	opts.Checkpoint = &core.CheckpointConfig{Dir: dir, Interval: 1, NoSync: true}
	if _, err := core.MineAuto(d, opts); err != nil {
		t.Fatalf("checkpointed mine (k<=%d): %v", k, err)
	}
	cp, err := core.LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	return cp
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	shapes := []struct {
		name string
		opts core.Options
	}{
		{"resident", core.Options{MinSupportCount: 2}},
		{"spilled-tiny-budget", core.Options{MinSupportCount: 2, MemoryBudget: 1 << 14, MaxWorkers: 2}},
		{"frac-support", core.Options{MinSupportFrac: 0.04, MaxWorkers: 3}},
	}
	d := ckptDataset(42, 90, 9, 14)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, err := core.MineAuto(d, sh.opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= len(ref.Counts); k++ {
				cp := writeCheckpointAt(t, d, sh.opts, k, t.TempDir())
				if cp == nil {
					t.Fatalf("k=%d: no checkpoint written", k)
				}
				res, err := core.MineAutoResumeMonitored(context.Background(), d, sh.opts, nil, nil, cp)
				if err != nil {
					t.Fatalf("resume from k=%d: %v", cp.K, err)
				}
				if !reflect.DeepEqual(res.Counts, ref.Counts) {
					t.Fatalf("k=%d: resumed counts differ from uninterrupted run", k)
				}
				if res.MinSupport != ref.MinSupport || res.NumTransactions != ref.NumTransactions {
					t.Fatalf("k=%d: result metadata differs", k)
				}
				if len(res.Stats) != len(ref.Stats) {
					t.Fatalf("k=%d: %d stats, want %d (replayed + live)", k, len(res.Stats), len(ref.Stats))
				}
			}
		})
	}
}

// TestCheckpointResumeWideFallback pins resume on a dataset whose
// catalogue forces patterns past the 64-bit packed key: checkpoints stop
// at the packed boundary, and resuming from the last packed manifest
// re-runs the fallback iterations to the same answer — resident, and
// under an 8 MiB budget, where the checkpointed R_k are runs.
func TestCheckpointResumeWideFallback(t *testing.T) {
	// ~4800 distinct filler items need 13-bit codes, so patterns of
	// length 5+ outgrow the 64-bit key; the 6 common items stay frequent
	// past that boundary (the TestPackedWideDomainFallback construction).
	common := []core.Item{1, 2, 3, 4, 5, 6}
	d := &core.Dataset{}
	filler := int64(1000)
	for i := 0; i < 30; i++ {
		items := append([]core.Item(nil), common...)
		for j := 0; j < 160; j++ {
			items = append(items, filler)
			filler++
		}
		d.Transactions = append(d.Transactions, core.Transaction{ID: int64(i + 1), Items: items})
	}
	for _, budget := range []int64{0, 8 << 20} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			opts := core.Options{MinSupportCount: 25, MemoryBudget: budget}
			ref, err := core.MineAuto(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			fellBack, spilled := false, false
			for _, st := range ref.Stats {
				fellBack = fellBack || st.Plan.Kernel == core.KernelGeneric
				spilled = spilled || st.Plan.Regime == core.RegimeSpilled
			}
			if !fellBack || spilled != (budget > 0) {
				t.Fatalf("setup: fallback %v, spilled passes %v under budget %d", fellBack, spilled, budget)
			}

			dir := t.TempDir()
			optsCk := opts
			optsCk.Checkpoint = &core.CheckpointConfig{Dir: dir, Interval: 1, NoSync: true}
			res, err := core.MineAuto(d, optsCk)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Counts, ref.Counts) {
				t.Fatal("checkpointing changed the mining result")
			}
			cp, err := core.LoadCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatal("no checkpoint survived the fallback run")
			}
			resumed, err := core.MineAutoResumeMonitored(context.Background(), d, opts, nil, nil, cp)
			if err != nil {
				t.Fatalf("resume from packed k=%d across the fallback: %v", cp.K, err)
			}
			if !reflect.DeepEqual(resumed.Counts, ref.Counts) {
				t.Fatal("resumed counts differ across the wide-pattern fallback")
			}
		})
	}
}

func TestLoadCheckpointEdgeCases(t *testing.T) {
	d := ckptDataset(7, 60, 7, 10)
	opts := core.Options{MinSupportCount: 2}

	t.Run("no-manifest", func(t *testing.T) {
		cp, err := core.LoadCheckpoint(t.TempDir())
		if cp != nil || err != nil {
			t.Fatalf("empty dir: cp=%v err=%v", cp, err)
		}
	})

	t.Run("missing-run-file", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		runs, _ := filepath.Glob(filepath.Join(dir, "rk-*.run"))
		if len(runs) != 1 {
			t.Fatalf("expected 1 run file, found %v", runs)
		}
		os.Remove(runs[0])
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("missing run file: %v", err)
		}
	})

	t.Run("corrupt-run-crc", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		runs, _ := filepath.Glob(filepath.Join(dir, "rk-*.run"))
		data, err := os.ReadFile(runs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		os.WriteFile(runs[0], data, 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("corrupt run: %v", err)
		}
	})

	t.Run("truncated-run", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		runs, _ := filepath.Glob(filepath.Join(dir, "rk-*.run"))
		data, _ := os.ReadFile(runs[0])
		os.WriteFile(runs[0], data[:len(data)-9], 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("truncated run: %v", err)
		}
	})

	t.Run("garbage-manifest", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{not json"), 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("garbage manifest: %v", err)
		}
	})

	// A manifest written before IterPlan lost its Exchange field (PR 27)
	// still loads and resumes: unknown JSON fields are ignored.
	t.Run("older-build-plan-field", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 2, dir)
		path := filepath.Join(dir, "MANIFEST.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.ReplaceAll(data, []byte(`"Plan":{`), []byte(`"Plan":{"Exchange":"none",`))
		if bytes.Equal(old, data) {
			t.Fatalf("setup: no plan in the manifest to age: %s", data)
		}
		os.WriteFile(path, old, 0o644)
		cp, err := core.LoadCheckpoint(dir)
		if err != nil || cp == nil || cp.K != 2 {
			t.Fatalf("aged manifest: cp=%v err=%v", cp, err)
		}
		got, err := core.MineAutoResumeMonitored(context.Background(), d, opts, nil, nil, cp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) || got.Stats[1].Plan != want.Stats[1].Plan {
			t.Fatalf("resume from an aged manifest diverged (plan %q vs %q)", got.Stats[1].Plan, want.Stats[1].Plan)
		}
	})

	// A version-1 checkpoint's run holds bit-packed keys where this
	// build reads rank codes (k >= 3): it must be refused, never resumed.
	t.Run("version-1-manifest", func(t *testing.T) {
		dir := t.TempDir()
		writeCheckpointAt(t, d, opts, 3, dir)
		path := filepath.Join(dir, "MANIFEST.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		v1 := bytes.Replace(data, []byte(`"version":2,`), []byte(`"version":1,`), 1)
		if bytes.Equal(v1, data) {
			t.Fatalf("setup: manifest is not version 2: %s", data)
		}
		os.WriteFile(path, v1, 0o644)
		if cp, err := core.LoadCheckpoint(dir); cp != nil || !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("version-1 manifest: cp=%v err=%v, want ErrCheckpoint", cp, err)
		}
	})

	t.Run("escaping-run-path", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, "MANIFEST.json"),
			[]byte(`{"version":2,"k":1,"min_sup":2,"num_transactions":3,"rk_file":"../../etc/passwd","counts":[[]]}`), 0o644)
		if _, err := core.LoadCheckpoint(dir); !errors.Is(err, core.ErrCheckpoint) {
			t.Fatalf("path-escaping manifest: %v", err)
		}
	})
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	d := ckptDataset(9, 70, 8, 12)
	cp := writeCheckpointAt(t, d, core.Options{MinSupportCount: 2}, 2, t.TempDir())

	// Different support threshold than the manifest's.
	if _, err := core.MineAutoResumeMonitored(context.Background(), d, core.Options{MinSupportCount: 5}, nil, nil, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("mismatched minsup: %v", err)
	}
	// Different dataset (one transaction dropped).
	d2 := &core.Dataset{Transactions: d.Transactions[:len(d.Transactions)-1]}
	if _, err := core.MineAutoResumeMonitored(context.Background(), d2, core.Options{MinSupportCount: 2}, nil, nil, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("mismatched dataset: %v", err)
	}
	// Same transaction count, different contents: caught by the packed
	// SALES row count.
	d3 := &core.Dataset{}
	for _, tx := range d.Transactions {
		d3.Transactions = append(d3.Transactions, core.Transaction{ID: tx.ID, Items: tx.Items[:1]})
	}
	if _, err := core.MineAutoResumeMonitored(context.Background(), d3, core.Options{MinSupportCount: 2}, nil, nil, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("mismatched contents: %v", err)
	}
	// The generic-kernel ablation cannot host a packed resume.
	if _, err := core.MineAutoResumeMonitored(context.Background(), d, core.Options{MinSupportCount: 2, DisablePackedKernels: true}, nil, nil, cp); !errors.Is(err, core.ErrCheckpoint) {
		t.Fatalf("resume under DisablePackedKernels: %v", err)
	}
	// nil checkpoint degrades to a plain mine.
	res, err := core.MineAutoResumeMonitored(context.Background(), d, core.Options{MinSupportCount: 2}, nil, nil, nil)
	if err != nil || res == nil {
		t.Fatalf("nil checkpoint: %v", err)
	}
}

// TestCheckpointWriteFailureNonFatal points the checkpoint directory
// under a regular file so every write fails: the mine must finish with
// the right answer, report the failure through OnError exactly once
// (checkpointing disables itself), and record zero CheckpointBytes.
func TestCheckpointWriteFailureNonFatal(t *testing.T) {
	d := ckptDataset(11, 80, 8, 12)
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fails int
	opts := core.Options{MinSupportCount: 2, Checkpoint: &core.CheckpointConfig{
		Dir:      filepath.Join(blocker, "ckpt"),
		Interval: 1,
		OnError:  func(err error) { fails++ },
	}}
	ref, err := core.MineAuto(d, core.Options{MinSupportCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatalf("mine with failing checkpoints: %v", err)
	}
	if !reflect.DeepEqual(res.Counts, ref.Counts) {
		t.Fatal("failing checkpoints changed the mining result")
	}
	if fails != 1 {
		t.Fatalf("OnError fired %d times, want 1 (disabled after first failure)", fails)
	}
	for _, st := range res.Stats {
		if st.CheckpointBytes != 0 {
			t.Fatalf("iteration %d recorded %d checkpoint bytes despite failures", st.K, st.CheckpointBytes)
		}
	}
}

func TestCheckpointIntervalAndStats(t *testing.T) {
	defer core.SetClock(stepClock(time.Microsecond))() // the paced row must not depend on the host
	d := ckptDataset(13, 90, 9, 12)
	ref, err := core.MineAuto(d, core.Options{MinSupportCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	var resumable []int // passes that leave rows to resume from
	for _, st := range ref.Stats {
		if st.RRows > 0 {
			resumable = append(resumable, st.K)
		}
	}
	if len(resumable) < 3 {
		t.Fatalf("setup: only passes %v leave an R_k", resumable)
	}
	for _, tc := range []struct {
		interval int
		want     func(k int) bool
	}{
		{1, func(int) bool { return true }},
		{2, func(k int) bool { return k%2 == 0 }},
		// Paced: a mine of microseconds never pays for a checkpoint.
		{0, func(int) bool { return false }},
	} {
		dir := filepath.Join(t.TempDir(), "ck")
		opts := core.Options{MinSupportCount: 2, Checkpoint: &core.CheckpointConfig{Dir: dir, Interval: tc.interval, NoSync: true}}
		res, err := core.MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		wrote := 0
		for _, st := range res.Stats {
			did := st.CheckpointBytes > 0
			if did != (st.CheckpointDuration > 0) {
				t.Fatalf("interval %d, k=%d: %d checkpoint bytes in %v", tc.interval, st.K, st.CheckpointBytes, st.CheckpointDuration)
			}
			if want := st.RRows > 0 && tc.want(st.K); did != want {
				t.Fatalf("interval %d: iteration %d checkpointed=%v, want %v", tc.interval, st.K, did, want)
			}
			if did {
				wrote++
			}
		}
		entries, err := os.ReadDir(dir)
		if wrote == 0 {
			if !os.IsNotExist(err) {
				t.Fatalf("interval %d wrote nothing yet left %v behind (err=%v)", tc.interval, entries, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Exactly one checkpoint (manifest + one run file) remains.
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("temp debris left behind: %s", e.Name())
			}
		}
		if len(names) != 2 {
			t.Fatalf("interval %d: checkpoint dir holds %v, want MANIFEST.json + one run", tc.interval, names)
		}
	}
}

// stepClock is a clock that moves one step per reading, so every pass and
// every checkpoint write the pipeline times takes exactly one step.
func stepClock(step time.Duration) func() time.Time {
	at := time.Unix(0, 0)
	return func() time.Time {
		at = at.Add(step)
		return at
	}
}

// TestCheckpointPacedByWork drives the default cadence with an injected
// clock: a mine of 2 ms passes is cheaper to redo than to protect and
// touches no file; the same mine at 200 ms passes checkpoints, and a
// resume from what it left is the uninterrupted result.
func TestCheckpointPacedByWork(t *testing.T) {
	d := ckptDataset(42, 90, 9, 14)
	opts := core.Options{MinSupportCount: 2}
	ref, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Stats) < 5 {
		t.Fatalf("setup: %d passes, want at least five", len(ref.Stats))
	}
	mine := func(step time.Duration, dir string) *core.Result {
		t.Helper()
		defer core.SetClock(stepClock(step))()
		o := opts
		o.Checkpoint = &core.CheckpointConfig{Dir: dir, NoSync: true}
		res, err := core.MineAuto(d, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Counts, ref.Counts) {
			t.Fatalf("%v passes: checkpoint pacing changed the result", step)
		}
		return res
	}

	dir := filepath.Join(t.TempDir(), "never")
	for _, st := range mine(2*time.Millisecond, dir).Stats {
		if st.Duration != 2*time.Millisecond || st.CheckpointBytes != 0 {
			t.Fatalf("k=%d: %v pass wrote %d checkpoint bytes", st.K, st.Duration, st.CheckpointBytes)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a 10 ms mine created its checkpoint directory (err=%v)", err)
	}

	dir = filepath.Join(t.TempDir(), "paced")
	var wrote []int
	for _, st := range mine(200*time.Millisecond, dir).Stats {
		if st.CheckpointBytes > 0 {
			wrote = append(wrote, st.K)
		}
	}
	// Pass 1 pays against the seed (200 ms of work, ~2 ms predicted); the
	// write then reads 200 ms on this clock, so later ones wait for work.
	if len(wrote) == 0 || wrote[0] != 1 {
		t.Fatalf("200 ms passes checkpointed at %v, want the first after pass 1", wrote)
	}
	cp, err := core.LoadCheckpoint(dir)
	if err != nil || cp == nil || cp.K != wrote[len(wrote)-1] {
		t.Fatalf("LoadCheckpoint: cp=%v err=%v, want k=%d", cp, err, wrote[len(wrote)-1])
	}
	pool := storage.NewPool(storage.NewMemStore(), 256)
	res, err := core.MineAutoResumeMonitored(context.Background(), d, opts, pool, nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Counts, ref.Counts) {
		t.Fatal("resume from a paced checkpoint differs from the uninterrupted run")
	}
	if pinned := pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames pinned after resume", pinned)
	}
}

// TestResumeZeroPinnedFrames runs a spilled resume on a caller-owned
// pool and checks the storage invariant the whole engine is pinned to:
// no frames stay pinned after mining, resumed or not.
func TestResumeZeroPinnedFrames(t *testing.T) {
	d := ckptDataset(17, 120, 10, 14)
	opts := core.Options{MinSupportCount: 2, MemoryBudget: 1 << 14, MaxWorkers: 2}
	cp := writeCheckpointAt(t, d, opts, 2, t.TempDir())
	pool := storage.NewPool(storage.NewMemStore(), 256)
	res, err := core.MineAutoResumeMonitored(context.Background(), d, opts, pool, nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPatterns() == 0 {
		t.Fatal("resumed mine found nothing")
	}
	if pinned := pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned after resume", pinned)
	}
}

// TestCheckpointWithInjectedPoolFaults mines with checkpointing over a
// fault-injecting store: whether the fault fires during mining or the
// checkpoint's read-back of spilled runs, the run must fail cleanly
// (zero pinned frames) or succeed exactly, and whatever checkpoint
// survives on disk must either load-and-resume to the reference answer
// or be rejected as ErrCheckpoint — never resume to a wrong result.
func TestCheckpointWithInjectedPoolFaults(t *testing.T) {
	d := ckptDataset(19, 100, 9, 12)
	opts := core.Options{MinSupportCount: 2, MemoryBudget: 1 << 14}
	ref, err := core.MineAuto(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, failAfter := range []int{0, 3, 7, 15, 40, 200} {
		for _, mode := range []string{"read", "write"} {
			dir := t.TempDir()
			fs := storage.NewFaultStore(storage.NewMemStore())
			if mode == "read" {
				fs.FailReadAfter = failAfter
			} else {
				fs.FailWriteAfter = failAfter
			}
			pool := storage.NewPool(fs, 256)
			optsCk := opts
			optsCk.Checkpoint = &core.CheckpointConfig{Dir: dir, Interval: 1, NoSync: true}
			res, err := core.MineAutoMonitored(context.Background(), d, optsCk, pool, nil)
			if err == nil && !reflect.DeepEqual(res.Counts, ref.Counts) {
				t.Fatalf("%s/%d: survived faults with a wrong answer", mode, failAfter)
			}
			if pinned := pool.PinnedFrames(); pinned != 0 {
				t.Fatalf("%s/%d: %d frames pinned after faulted run", mode, failAfter, pinned)
			}
			cp, lerr := core.LoadCheckpoint(dir)
			if lerr != nil {
				if !errors.Is(lerr, core.ErrCheckpoint) {
					t.Fatalf("%s/%d: LoadCheckpoint: %v", mode, failAfter, lerr)
				}
				continue
			}
			if cp == nil {
				continue
			}
			resumed, rerr := core.MineAutoResumeMonitored(context.Background(), d, opts, nil, nil, cp)
			if rerr != nil {
				if !errors.Is(rerr, core.ErrCheckpoint) {
					t.Fatalf("%s/%d: resume: %v", mode, failAfter, rerr)
				}
				continue
			}
			if !reflect.DeepEqual(resumed.Counts, ref.Counts) {
				t.Fatalf("%s/%d: resumed from fault-era checkpoint to a wrong answer", mode, failAfter)
			}
		}
	}
}
