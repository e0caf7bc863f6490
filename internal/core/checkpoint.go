package core

// Durable iteration-boundary checkpoints. SETM's loop state at an iteration
// boundary is tiny and explicit — the paper's Figure 4 recurrence needs
// only C_1..C_k (the result so far) and R_k (the filtered relation the
// next merge-scan extends) to reproduce every later iteration exactly. A
// checkpoint is therefore one manifest (JSON: k, thresholds, counts,
// stats) plus one packed run file holding R_k's (tid, key) rows, both
// written atomically (temp + fsync + rename, manifest last) so a crash
// mid-checkpoint leaves the previous checkpoint intact. Resume re-derives everything
// else — the dictionary and packed SALES are deterministic functions of
// the dataset — and re-enters the pipeline at iteration k+1,
// bit-identical to an uninterrupted run.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"setm/internal/storage"
)

// CheckpointConfig makes a mining run durable: the executor persists a
// resumable manifest into Dir at iteration boundaries.
type CheckpointConfig struct {
	// Dir is the checkpoint directory (created on first write). One
	// directory holds at most one checkpoint: each write replaces the
	// previous manifest and removes its run file.
	Dir string
	// Interval >= 1 checkpoints every Interval-th iteration,
	// unconditionally. Zero (the default) paces: an iteration is
	// checkpointed once the mining time no checkpoint protects is
	// ckptPaceWork times the predicted cost of writing its R_k, so a mine
	// cheaper to redo than to protect writes nothing (see checkpointPays).
	Interval int
	// NoSync skips the fsyncs around checkpoint files. Only for tests:
	// a crash may then lose or tear the newest checkpoint (resume falls
	// back to an older one or a full re-mine, so results stay correct).
	NoSync bool
	// OnError, when non-nil, is told about a failed checkpoint write.
	// Checkpoint failures never fail the mine: the run continues with
	// checkpointing disabled, and OnError is how the caller learns
	// durability degraded.
	OnError func(error)
}

// Checkpoint is a loaded, integrity-verified checkpoint manifest.
type Checkpoint struct {
	K               int              // last completed iteration
	MinSup          int64            // absolute support threshold of the run
	NumTransactions int              // dataset identity: |transactions|
	SalesRows       int64            // dataset identity: |packed SALES|
	RPrimeRows      int64            // |R'_K|, seeds the next iteration's plan
	RRows           int64            // |R_K|
	Counts          [][]ItemsetCount // C_1..C_K
	Stats           []IterationStat  // per-iteration stats through K

	dir    string
	rkFile string
}

// ErrCheckpoint tags every integrity failure of the checkpoint path —
// missing or corrupt manifest or run file, or a manifest that does not
// match the dataset and options being resumed. Callers match it with
// errors.Is and fall back to a full re-mine; it never indicates a
// problem with the dataset itself.
var ErrCheckpoint = errors.New("setm: invalid or mismatched checkpoint")

const (
	ckptManifestName = "MANIFEST.json"
	ckptMagic        = "SETMRK01"
	// ckptVersion 2: R_K's run holds the executor's keys, rank-coded from
	// k = 3 (pack.go). A version-1 run's bit-packed keys would read as
	// wrong ranks, so it is refused and the job re-mines.
	// ckptVersion 3: R_K's rows hold basket ordinals, not trans_ids
	// (pack.go's baskets). A version-2 run's trans_ids would index the
	// wrong baskets, so it is refused the same way.
	ckptVersion   = 3
	ckptBatchRows = 4096
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// ckptManifest is the on-disk manifest schema.
type ckptManifest struct {
	Version         int              `json:"version"`
	K               int              `json:"k"`
	MinSup          int64            `json:"min_sup"`
	NumTransactions int              `json:"num_transactions"`
	SalesRows       int64            `json:"sales_rows"`
	RPrimeRows      int64            `json:"r_prime_rows"`
	RRows           int64            `json:"r_rows"`
	RkFile          string           `json:"rk_file"`
	Counts          [][]ItemsetCount `json:"counts"`
	Stats           []IterationStat  `json:"stats"`
}

// Pacing, for CheckpointConfig.Interval 0. ckptPaceWork bounds checkpoint
// I/O to 1/10 of mining time and what a crash loses to ten predicted
// writes plus a pass; ISSUE 26's probe set it (setmd-mix cold job, retail,
// p50 of three rounds, re-taken 2026-10-05): a checkpoint every pass cost
// 17.1 ms on an 11 ms mine, so the share worth paying is far under 1, and
// at 1/10 a ten-second mine still checkpoints every pass. The seed prices
// a job's first write, before one is measured: BenchmarkSaveCheckpoint,
// same day, -cpu 1, read 1.7 / 2.4 / 5.7 / 9.8 / 36.3 ms for R_k of
// 16 B / 0.21 / 1.86 / 3.7 / 16.5 MB — 1.7 ms of fsyncs (four; 241 µs is
// wal.append_sync_us), creates and renames plus 2.2 ns a byte, which
// prices retail's three checkpoints (3.5 MB) at the issue's 12.8 ms.
const (
	ckptPaceWork      = 10
	ckptSeedFixed     = 1700 * time.Microsecond
	ckptSeedNsPerByte = 2.2
)

// checkpointCost predicts the wall time of checkpointing an R_k of the
// given bytes: the fixed part (four fsyncs, two renames) plus a per-byte
// part — the last write's measured one, the seed's before any write.
func checkpointCost(bytes int64, lastCost time.Duration, lastBytes int64) time.Duration {
	perByte := ckptSeedNsPerByte
	if lastBytes > 0 {
		perByte = float64(max(0, lastCost-ckptSeedFixed)) / float64(lastBytes)
	}
	return ckptSeedFixed + time.Duration(perByte*float64(bytes))
}

// checkpointPays is the pacing rule: work is the mining time since the
// last durable point, cost the predicted time to make this one durable.
func checkpointPays(work, cost time.Duration) bool {
	return work >= ckptPaceWork*cost
}

// saveCheckpoint persists cp plus the live R_k into cfg.Dir and returns
// the bytes written. The run file lands first, the manifest's rename
// commits the checkpoint, and only then is the previous checkpoint's
// run file removed — at every instant the directory holds one complete,
// consistent checkpoint.
func saveCheckpoint(cfg *CheckpointConfig, cp *Checkpoint, pool *storage.Pool, rk *srel) (int64, error) {
	if cfg.Dir == "" {
		return 0, fmt.Errorf("setm: CheckpointConfig.Dir is empty")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return 0, err
	}
	rkFile := fmt.Sprintf("rk-%03d.run", cp.K)
	if err := storage.WriteFileAtomic(filepath.Join(cfg.Dir, rkFile), cfg.NoSync, func(w io.Writer) error {
		return writeCheckpointRun(w, pool, rk)
	}); err != nil {
		return 0, err
	}
	runBytes := int64(len(ckptMagic)) + 8 + rk.rows()*16 + 4

	man := ckptManifest{
		Version: ckptVersion, K: cp.K, MinSup: cp.MinSup,
		NumTransactions: cp.NumTransactions, SalesRows: cp.SalesRows,
		RPrimeRows: cp.RPrimeRows, RRows: cp.RRows, RkFile: rkFile,
		Counts: cp.Counts, Stats: cp.Stats,
	}
	data, err := json.Marshal(&man)
	if err != nil {
		return 0, err
	}
	if err := storage.WriteFileAtomic(filepath.Join(cfg.Dir, ckptManifestName), cfg.NoSync, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return 0, err
	}

	// The manifest rename committed this checkpoint; earlier run files
	// are garbage now. Removal failures are harmless (debris, not
	// corruption) and the next checkpoint retries.
	if entries, derr := os.ReadDir(cfg.Dir); derr == nil {
		for _, e := range entries {
			if name := e.Name(); strings.HasPrefix(name, "rk-") && name != rkFile {
				os.Remove(filepath.Join(cfg.Dir, name))
			}
		}
	}
	return runBytes + int64(len(data)), nil
}

// writeCheckpointRun streams rk as the checkpoint run format: magic,
// row count, raw little-endian (tid, key) pairs, CRC-32C of the pairs —
// encoded, summed and written one iterator block at a time.
func writeCheckpointRun(w io.Writer, pool *storage.Pool, rk *srel) error {
	buf := binary.LittleEndian.AppendUint64([]byte(ckptMagic), uint64(rk.rows()))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	var sum uint32
	it := rowsOf(pool, rk)
	defer it.close()
	for {
		blk, err := it.next()
		if err != nil {
			return err
		}
		if blk == nil {
			break
		}
		buf = slices.Grow(buf[:0], len(blk)*16)[:len(blk)*16]
		for i, row := range blk {
			binary.LittleEndian.PutUint64(buf[i*16:], row.Tid)
			binary.LittleEndian.PutUint64(buf[i*16+8:], row.Key)
		}
		sum = crc32.Update(sum, ckptCRC, buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(buf[:0], sum))
	return err
}

// LoadCheckpoint reads and fully verifies the checkpoint in dir: the
// manifest must parse and be self-consistent, and the run file must
// exist with matching row count and CRC. A directory with no manifest
// returns (nil, nil) — no checkpoint is not an error. Any integrity
// failure returns an error wrapping ErrCheckpoint; callers treat it as
// "mine from scratch".
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var man ckptManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCheckpoint, err)
	}
	if man.Version != ckptVersion || man.K < 1 || len(man.Counts) != man.K ||
		man.RkFile == "" || strings.ContainsAny(man.RkFile, "/\\") || man.RRows < 0 {
		return nil, fmt.Errorf("%w: malformed manifest (version %d, k %d, %d count relations)",
			ErrCheckpoint, man.Version, man.K, len(man.Counts))
	}
	cp := &Checkpoint{
		K: man.K, MinSup: man.MinSup, NumTransactions: man.NumTransactions,
		SalesRows: man.SalesRows, RPrimeRows: man.RPrimeRows, RRows: man.RRows,
		Counts: man.Counts, Stats: man.Stats,
		dir: dir, rkFile: man.RkFile,
	}
	if err := readCheckpointRows(cp, func([]prow) error { return nil }); err != nil {
		return nil, err
	}
	return cp, nil
}

// readCheckpointRows streams the checkpoint's R_K rows in batches.
// Framing or CRC damage returns an error wrapping ErrCheckpoint; the
// CRC is verified before the final batch is delivered, so a caller that
// consumed every batch without error has read an intact relation.
func readCheckpointRows(cp *Checkpoint, fn func(rows []prow) error) error {
	f, err := os.Open(filepath.Join(cp.dir, cp.rkFile))
	if err != nil {
		return fmt.Errorf("%w: run file: %v", ErrCheckpoint, err)
	}
	defer f.Close()
	hdr := make([]byte, len(ckptMagic)+8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return fmt.Errorf("%w: run header: %v", ErrCheckpoint, err)
	}
	if string(hdr[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("%w: run file has wrong magic", ErrCheckpoint)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[len(ckptMagic):]))
	if rows != cp.RRows {
		return fmt.Errorf("%w: run holds %d rows, manifest says %d", ErrCheckpoint, rows, cp.RRows)
	}
	var sum uint32
	buf := make([]byte, ckptBatchRows*16)
	batch := make([]prow, 0, ckptBatchRows) // the last one waits for the CRC
	for left := rows; left > 0; left -= int64(len(batch)) {
		if len(batch) > 0 {
			if err := fn(batch); err != nil {
				return err
			}
		}
		blk := buf[:min(left, ckptBatchRows)*16]
		if _, err := io.ReadFull(f, blk); err != nil {
			return fmt.Errorf("%w: run truncated at row %d: %v", ErrCheckpoint, rows-left, err)
		}
		sum = crc32.Update(sum, ckptCRC, blk)
		batch = batch[:len(blk)/16]
		for i := range batch {
			batch[i] = prow{Tid: binary.LittleEndian.Uint64(blk[i*16:]), Key: binary.LittleEndian.Uint64(blk[i*16+8:])}
		}
	}
	if _, err := io.ReadFull(f, buf[:4]); err != nil {
		return fmt.Errorf("%w: run trailer: %v", ErrCheckpoint, err)
	}
	if binary.LittleEndian.Uint32(buf[:4]) != sum {
		return fmt.Errorf("%w: run CRC mismatch", ErrCheckpoint)
	}
	if len(batch) > 0 {
		return fn(batch)
	}
	return nil
}

// MineAutoResumeMonitored continues a mining run from a checkpoint
// loaded by LoadCheckpoint: the executor rebuilds its deterministic
// state (dictionary, packed SALES as R_1), streams R_K back in
// under the current memory budget, and re-enters the loop at iteration
// K+1. Results are bit-identical to an uninterrupted MineAuto run with
// the same options. cp == nil is a plain MineAutoMonitored run — this is
// where MineAuto and MineMemory build the executor (MinePaged builds its
// own, for Section 4.3's plan and pool). A checkpoint that fails
// verification against the dataset and options returns an error wrapping
// ErrCheckpoint — the caller falls back to a full re-mine; no partial
// state leaks (pinned frames stay zero).
func MineAutoResumeMonitored(ctx context.Context, d *Dataset, opts Options, pool *storage.Pool, onIter func(IterationStat), cp *Checkpoint) (*Result, error) {
	if opts.DisablePackedKernels {
		if cp != nil {
			return nil, fmt.Errorf("%w: checkpoints require the packed executor (DisablePackedKernels is set)", ErrCheckpoint)
		}
		// The ablation is the serial flat reference; there is nothing to plan.
		return runPipeline(ctx, d, opts, &flatStepper{d: d}, onIter, nil)
	}
	return runPipeline(ctx, d, opts, monitoredStepper(ctx, d, opts, pool), onIter, cp)
}

// monitoredStepper is the executor of MineAutoResumeMonitored and of a
// MineDelta refresh: ctx polled in its kernels, on the caller's pool.
func monitoredStepper(ctx context.Context, d *Dataset, opts Options, pool *storage.Pool) *execStepper {
	cfg := PagedConfig{}.withDefaults()
	if pool != nil {
		cfg.PoolFrames = pool.Capacity()
	}
	st := newExecStepper(d, opts, cfg)
	st.ctx = ctx
	if pool != nil {
		st.attachPool(pool)
	}
	return st
}
