package core

// The checkpoint cadence rule and the run-file codec, tested from inside
// the package: the pacing functions are pure, and the block encoder must
// write the bytes the row-at-a-time encoder it replaced wrote.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"setm/internal/storage"
)

// TestCheckpointPacingTable pins the multiple, the seed and the rule.
func TestCheckpointPacingTable(t *testing.T) {
	const ms = time.Millisecond
	const fixed = 1700 * time.Microsecond
	if ckptPaceWork != 10 || ckptSeedFixed != fixed || ckptSeedNsPerByte != 2.2 {
		t.Fatalf("pacing constants moved (%d, %v, %v ns/B): re-take ISSUE 26's probe and BenchmarkSaveCheckpoint, then update this table",
			ckptPaceWork, ckptSeedFixed, ckptSeedNsPerByte)
	}
	costs := []struct {
		name      string
		bytes     int64
		lastCost  time.Duration
		lastBytes int64
		want      time.Duration
	}{
		{"seed, retail R_1 1.85 MB", 1_850_000, 0, 0, fixed + 4070*time.Microsecond},
		{"seed, quest R_2 3.7 MB", questR2Rows * 16, 0, 0, fixed + 8158550*time.Nanosecond},
		{"seed, one row", 16, 0, 0, fixed + 35*time.Nanosecond},
		{"measured, same size", 1 << 20, 5 * ms, 1 << 20, 5 * ms},
		{"measured, a tenth the size keeps the fixed part", 1 << 20, fixed + 40*ms, 10 << 20, fixed + 4*ms},
		{"measured under the fixed part (fast disk) reads the fixed part", 1 << 20, ms / 4, 1 << 20, fixed},
	}
	for _, c := range costs {
		if got := checkpointCost(c.bytes, c.lastCost, c.lastBytes); got != c.want {
			t.Errorf("checkpointCost %s: %v, want %v", c.name, got, c.want)
		}
	}
	pays := []struct {
		work, cost time.Duration
		want       bool
	}{
		{0, ms, false},
		{10 * ms, 6 * ms, false}, // a whole retail mine against its R_1
		{59 * ms, 6 * ms, false},
		{60 * ms, 6 * ms, true},
		{10 * time.Second, 200 * ms, true},
	}
	for _, c := range pays {
		if got := checkpointPays(c.work, c.cost); got != c.want {
			t.Errorf("checkpointPays(%v, %v) = %v, want %v", c.work, c.cost, got, c.want)
		}
	}
}

// TestCheckpointPacingBounds runs the rule over random mines (pass
// durations and R_k sizes) with every prediction taken as exact: the
// checkpoint time stays within 1/ckptPaceWork of the mining time, and after
// every boundary the unprotected work is under the threshold that would
// have fired — so a crash in the next pass loses less than that plus the
// pass.
func TestCheckpointPacingBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 2000; trial++ {
		var atRisk, lastCost, work, spent time.Duration
		var lastBytes int64
		scale := time.Duration(1) << uint(rng.Intn(24)) // passes from ~µs to ~10 s
		for k := 1 + rng.Intn(12); k > 0; k-- {
			d := time.Duration(rng.Int63n(int64(scale)*1000) + 1)
			bytes := 16 * (1 + rng.Int63n(1<<uint(1+rng.Intn(24))))
			work, atRisk = work+d, atRisk+d
			cost := checkpointCost(bytes, lastCost, lastBytes)
			if checkpointPays(atRisk, cost) {
				spent, atRisk, lastCost, lastBytes = spent+cost, 0, cost, bytes
			}
			if atRisk >= ckptPaceWork*cost {
				t.Fatalf("trial %d: %v unprotected after a boundary whose threshold is %v", trial, atRisk, ckptPaceWork*cost)
			}
		}
		if spent*ckptPaceWork > work {
			t.Fatalf("trial %d: %v of checkpoints for %v of mining, over 1/%d", trial, spent, work, ckptPaceWork)
		}
	}
}

// rowLoopWriteCheckpointRun is the encoder writeCheckpointRun replaced,
// kept as the format's reference: PutUint64, crc.Write and bw.Write per
// 16-byte row.
func rowLoopWriteCheckpointRun(w io.Writer, pool *storage.Pool, rk *srel) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(rk.rows()))
	if _, err := bw.Write(buf[:8]); err != nil {
		return err
	}
	sum := crc32.New(ckptCRC)
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
		for _, row := range blk {
			binary.LittleEndian.PutUint64(buf[0:8], row.Tid)
			binary.LittleEndian.PutUint64(buf[8:16], row.Key)
			sum.Write(buf[:])
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], sum.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ckptRows builds n rows shaped like an R_k: ascending tids, dense keys.
func ckptRows(n int) []prow {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]prow, n)
	tid := uint64(0)
	for i := range rows {
		tid += uint64(rng.Intn(3))
		rows[i] = prow{Tid: tid, Key: rng.Uint64() >> 34}
	}
	return rows
}

// questR2Rows and questR1Rows are |R_2| and |R_1| of T10I4D100K at minsup
// 0.0025 (ROADMAP's pass table).
const (
	questR2Rows = 231_777
	questR1Rows = 1_028_744
)

// TestCheckpointRunByteIdentical: the block encoder writes the file the
// row loop wrote, and the block decoder reads the rows back.
func TestCheckpointRunByteIdentical(t *testing.T) {
	for _, n := range []int{0, 1, ckptBatchRows, questR2Rows} {
		rows := ckptRows(n)
		var want, got bytes.Buffer
		if err := rowLoopWriteCheckpointRun(&want, nil, memSrel(rows)); err != nil {
			t.Fatal(err)
		}
		if err := writeCheckpointRun(&got, nil, memSrel(rows)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d rows: block encoder wrote %d bytes that differ from the row loop's %d", n, got.Len(), want.Len())
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "rk.run"), got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var back []prow
		cp := &Checkpoint{RRows: int64(n), dir: dir, rkFile: "rk.run"}
		if err := readCheckpointRows(cp, func(b []prow) error {
			if len(b) == 0 || len(b) > ckptBatchRows {
				return fmt.Errorf("batch of %d rows", len(b))
			}
			back = append(back, b...)
			return nil
		}); err != nil {
			t.Fatalf("%d rows: read back: %v", n, err)
		}
		if len(back) != n {
			t.Fatalf("%d rows: read back %d", n, len(back))
		}
		for i := range back {
			if back[i] != rows[i] {
				t.Fatalf("%d rows: row %d read back as %v, wrote %v", n, i, back[i], rows[i])
			}
		}
	}
}

// BenchmarkCheckpointRun is the codec alone on quest's R_2 and R_1: the
// writer into a discarding sink, the reader from a page-cached file, and
// the row loop the writer replaced. Run with -cpu 1.
func BenchmarkCheckpointRun(b *testing.B) {
	for _, n := range []int{questR2Rows, questR1Rows} {
		rk := memSrel(ckptRows(n))
		for _, enc := range []struct {
			name  string
			write func(io.Writer, *storage.Pool, *srel) error
		}{{"write", writeCheckpointRun}, {"write-rowloop", rowLoopWriteCheckpointRun}} {
			b.Run(fmt.Sprintf("%s/rows=%d", enc.name, n), func(b *testing.B) {
				b.SetBytes(int64(n) * 16)
				for i := 0; i < b.N; i++ {
					if err := enc.write(io.Discard, nil, rk); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("read/rows=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			f, err := os.Create(filepath.Join(dir, "rk.run"))
			if err != nil {
				b.Fatal(err)
			}
			if err := writeCheckpointRun(f, nil, rk); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			cp := &Checkpoint{RRows: int64(n), dir: dir, rkFile: "rk.run"}
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := readCheckpointRows(cp, func([]prow) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSaveCheckpoint is the whole durable write (run file, manifest,
// four fsyncs, two renames) at the R_k sizes ISSUE 26 names — the
// measurement behind ckptSeedFixed and ckptSeedPerByte.
func BenchmarkSaveCheckpoint(b *testing.B) {
	for _, n := range []int{1, 13_000, 116_000, questR2Rows, questR1Rows} {
		rk := memSrel(ckptRows(n))
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			cfg := &CheckpointConfig{Dir: filepath.Join(b.TempDir(), "ck")}
			cp := &Checkpoint{K: 2, RRows: int64(n), Counts: make([][]ItemsetCount, 2)}
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				if _, err := saveCheckpoint(cfg, cp, nil, rk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
