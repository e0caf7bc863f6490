package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setm/internal/core"
	"setm/internal/gen"
)

// borderFixtures are the RetainBorder goldens' data sets: a retail
// stand-in and a small quest, each mined deep enough (k >= 4) that the
// executor's rank-coded passes produce border levels.
func borderFixtures() []struct {
	name   string
	d      *core.Dataset
	minsup float64
} {
	retail := gen.DefaultRetail(1)
	retail.NumTransactions = 4000
	return []struct {
		name   string
		d      *core.Dataset
		minsup float64
	}{
		{"retail", gen.Retail(retail), 0.002},
		{"quest", gen.Quest(gen.T10I4D100K(0.02, 1)), 0.006},
	}
}

// renderBorder is a snapshot's golden form: its identity fields, per
// level the entry counts and a SHA-256 of the (key, count) runs, and a
// SHA-256 of the bytes SaveBorder writes.
func renderBorder(t *testing.T, b *core.BorderSnapshot) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "minsup %d transactions %d sales_rows %d max_tid %d items %d levels %d\n",
		b.MinSup, b.NumTransactions, b.SalesRows, b.MaxTid, len(b.Items), len(b.Levels))
	run := func(keys []uint64, counts []int64) string {
		h := sha256.New()
		for i, k := range keys {
			h.Write(binary.LittleEndian.AppendUint64(nil, k))
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(counts[i])))
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for i, l := range b.Levels {
		fmt.Fprintf(&sb, "level %d freq %d %s border %d %s\n", i+1,
			len(l.FreqKeys), run(l.FreqKeys, l.FreqCounts), len(l.BorderKeys), run(l.BorderKeys, l.BorderCounts))
	}
	path := filepath.Join(t.TempDir(), "border.bin")
	if err := core.SaveBorder(path, b, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "file %d bytes sha256 %x\n", len(data), sha256.Sum256(data))
	return sb.String()
}

// TestBorderSnapshotGolden pins the RetainBorder snapshot byte for byte
// on two fixtures, serial and fanned out. The snapshot's levels hold the
// executor's own keys — bit-packed codes through k = 2, the prefix's rank
// in F_{k-1} from k = 3 — which MineDelta re-ranks into its run. -update
// rewrites testdata/border_*.golden.
func TestBorderSnapshotGolden(t *testing.T) {
	for _, fx := range borderFixtures() {
		golden := filepath.Join("testdata", "border_"+fx.name+".golden")
		var want string
		for _, workers := range []int{1, 2} {
			res, err := core.MineAuto(fx.d, core.Options{MinSupportFrac: fx.minsup, RetainBorder: true, MaxWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Border == nil || len(res.Border.Levels) < 4 {
				t.Fatalf("%s: snapshot missing or shallower than k=4", fx.name)
			}
			got := renderBorder(t, res.Border)
			if *updateGolden && workers == 1 {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if want == "" {
				data, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%s: %v (run with -update)", fx.name, err)
				}
				want = string(data)
			}
			if got != want {
				t.Errorf("%s at %d workers: snapshot differs from %s\ngot:\n%s\nwant:\n%s", fx.name, workers, golden, got, want)
			}
		}
	}
}
