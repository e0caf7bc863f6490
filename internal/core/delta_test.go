// Incremental delta-mining suite: MineDelta(base, delta) is
// conformance-pinned bit-identical to MineAuto(base+delta) across
// promotions, demotions, unseen items, shifted fractional thresholds,
// and chained appends — on both the pure O(delta) path and the
// promotion-triggered executor fallback.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"setm/internal/storage"
)

// deltaSplit builds a base dataset and an appended delta whose
// transaction ids continue past the base.
func deltaSplit(rng *rand.Rand, baseN, deltaN, maxLen, nItems, deltaItems int) (*Dataset, *Dataset) {
	base := randomDataset(rng, baseN, maxLen, nItems)
	delta := &Dataset{}
	next := base.Transactions[len(base.Transactions)-1].ID + 1
	for i := 0; i < deltaN; i++ {
		ln := 1 + rng.Intn(maxLen)
		items := make([]Item, ln)
		for j := range items {
			items[j] = Item(1 + rng.Intn(deltaItems))
		}
		delta.Transactions = append(delta.Transactions, Transaction{ID: next, Items: items})
		next += 1 + int64(rng.Intn(3))
	}
	return base, delta
}

func combined(base, delta *Dataset) *Dataset {
	txns := make([]Transaction, 0, len(base.Transactions)+len(delta.Transactions))
	txns = append(txns, base.Transactions...)
	txns = append(txns, delta.Transactions...)
	return &Dataset{Transactions: txns}
}

// mineBorder mines base with border retention and returns the snapshot.
func mineBorder(t *testing.T, base *Dataset, opts Options) *BorderSnapshot {
	t.Helper()
	opts.RetainBorder = true
	res, err := MineAuto(base, opts)
	if err != nil {
		t.Fatalf("base mine: %v", err)
	}
	if res.Border == nil {
		t.Fatal("base mine returned no border snapshot")
	}
	return res.Border
}

func TestMineDeltaConformance(t *testing.T) {
	cases := []struct {
		name                                      string
		seed                                      int64
		baseN, deltaN, maxLen, nItems, deltaItems int
		opts                                      Options
	}{
		// Small delta over a dense catalogue: the pure path, no promotions
		// on most seeds.
		{name: "small-delta", seed: 1, baseN: 120, deltaN: 4, maxLen: 8, nItems: 12, deltaItems: 12, opts: Options{MinSupportCount: 6}},
		// Delta re-using the same skewed catalogue hard enough to promote
		// border sets: exercises the executor fallback.
		{name: "promoting-delta", seed: 2, baseN: 60, deltaN: 40, maxLen: 9, nItems: 8, deltaItems: 8, opts: Options{MinSupportCount: 12}},
		// Delta introducing items the base never saw (dictionary grows,
		// snapshot keys re-coded).
		{name: "unseen-items", seed: 3, baseN: 80, deltaN: 20, maxLen: 7, nItems: 10, deltaItems: 25, opts: Options{MinSupportCount: 4}},
		// Fractional support: the absolute floor shifts with the append,
		// demoting low-margin frequent sets.
		{name: "frac-minsup", seed: 4, baseN: 100, deltaN: 30, maxLen: 8, nItems: 10, deltaItems: 10, opts: Options{MinSupportFrac: 0.08}},
		// Pattern-length cap: both sides must stop at the same level.
		{name: "maxlen-cap", seed: 5, baseN: 90, deltaN: 15, maxLen: 10, nItems: 7, deltaItems: 7, opts: Options{MinSupportCount: 5, MaxPatternLen: 3}},
		// Single-transaction delta: the smallest real refresh.
		{name: "one-txn", seed: 6, baseN: 70, deltaN: 1, maxLen: 6, nItems: 15, deltaItems: 15, opts: Options{MinSupportCount: 3}},
		// Delta bigger than the base: promotion-heavy, fallback from an
		// early level.
		{name: "delta-dominates", seed: 7, baseN: 30, deltaN: 90, maxLen: 8, nItems: 9, deltaItems: 9, opts: Options{MinSupportCount: 10}},
		// Threshold so high everything demotes to the border.
		{name: "demote-everything", seed: 8, baseN: 50, deltaN: 10, maxLen: 6, nItems: 30, deltaItems: 30, opts: Options{MinSupportCount: 40}},
		// The pure path with demoted prefixes: the base's level-3 and -4
		// candidates under them are dropped, as a cold mine never counts
		// them, so the refreshed border has no stale entries.
		{name: "demoted-prefix", seed: 20, baseN: 100, deltaN: 30, maxLen: 8, nItems: 10, deltaItems: 10, opts: Options{MinSupportFrac: 0.12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			base, delta := deltaSplit(rng, tc.baseN, tc.deltaN, tc.maxLen, tc.nItems, tc.deltaItems)
			tc.opts.RetainBorder = true
			snap := mineBorder(t, base, tc.opts)

			got, err := MineDelta(context.Background(), base, delta, snap, tc.opts)
			if err != nil {
				t.Fatalf("MineDelta: %v", err)
			}
			want, err := MineAuto(combined(base, delta), tc.opts)
			if err != nil {
				t.Fatalf("MineAuto(combined): %v", err)
			}
			if got.MinSupport != want.MinSupport || got.NumTransactions != want.NumTransactions {
				t.Fatalf("header mismatch: got (minsup=%d, n=%d) want (minsup=%d, n=%d)",
					got.MinSupport, got.NumTransactions, want.MinSupport, want.NumTransactions)
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) {
				assertSameCounts(t, tc.name, want, got)
				t.Fatalf("counts differ from full re-mine")
			}
			// The refreshed snapshot is the one a cold mine keeps, on the
			// pure path as on the fallback (a cold mine).
			assertSameBorder(t, want.Border, got.Border)
		})
	}
}

// TestMineDeltaEmptyDelta folds an empty append: the result must match
// the base run and the refreshed snapshot must chain.
func TestMineDeltaEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomDataset(rng, 60, 7, 10)
	opts := Options{MinSupportCount: 4, RetainBorder: true}
	ref, err := MineAuto(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineDelta(context.Background(), base, &Dataset{}, ref.Border, opts)
	if err != nil {
		t.Fatalf("MineDelta(empty): %v", err)
	}
	if !reflect.DeepEqual(got.Counts, ref.Counts) {
		t.Fatal("empty delta changed the counts")
	}
	if got.Border == nil {
		t.Fatal("RetainBorder produced no refreshed snapshot")
	}
}

// TestMineDeltaChained applies a stream of appends, each mined from the
// previous refresh's snapshot, and pins every step to a cold re-mine of
// the accumulated dataset. This is the service's steady-state loop.
func TestMineDeltaChained(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	opts := Options{MinSupportCount: 5, RetainBorder: true}
	acc := randomDataset(rng, 80, 8, 11)
	res, err := MineAuto(acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		_, delta := deltaSplit(rng, 1, 10+step*7, 8, 11, 13)
		// Re-anchor delta tids beyond the accumulated max.
		next := acc.Transactions[len(acc.Transactions)-1].ID + 1
		for i := range delta.Transactions {
			delta.Transactions[i].ID = next
			next++
		}
		got, err := MineDelta(context.Background(), acc, delta, res.Border, opts)
		if err != nil {
			t.Fatalf("step %d: MineDelta: %v", step, err)
		}
		acc = combined(acc, delta)
		want, err := MineAuto(acc, opts)
		if err != nil {
			t.Fatalf("step %d: MineAuto: %v", step, err)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			assertSameCounts(t, "chained", want, got)
			t.Fatalf("step %d: counts diverged from cold re-mine", step)
		}
		if got.Border == nil {
			t.Fatalf("step %d: no refreshed snapshot to chain from", step)
		}
		res = got
	}
}

// TestMineDeltaForcedFallback engineers a promotion at level 2: a
// border pair in the base crosses minsup through the delta, so levels
// >= 3 must come from the executor fallback — and still match.
func TestMineDeltaForcedFallback(t *testing.T) {
	base := &Dataset{}
	// 4x {1,2,3}: triple frequent at minsup 4. 3x {4,5}: border pair.
	for i := 0; i < 4; i++ {
		base.Transactions = append(base.Transactions, Transaction{ID: int64(i + 1), Items: []Item{1, 2, 3}})
	}
	for i := 0; i < 3; i++ {
		base.Transactions = append(base.Transactions, Transaction{ID: int64(i + 5), Items: []Item{4, 5}})
	}
	opts := Options{MinSupportCount: 4}
	snap := mineBorder(t, base, opts)
	// The delta promotes {4,5} (3 -> 5) and extends it with item 6.
	delta := &Dataset{Transactions: []Transaction{
		{ID: 100, Items: []Item{4, 5, 6}},
		{ID: 101, Items: []Item{4, 5, 6}},
	}}
	got, err := MineDelta(context.Background(), base, delta, snap, opts)
	if err != nil {
		t.Fatalf("MineDelta: %v", err)
	}
	want, err := MineAuto(combined(base, delta), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		assertSameCounts(t, "forced-fallback", want, got)
		t.Fatal("fallback counts differ")
	}
	// The promotion really happened: {4,5} frequent in the refreshed run.
	if got.Support([]int64{4, 5}) != 5 {
		t.Fatalf("promoted pair support = %d, want 5", got.Support([]int64{4, 5}))
	}
}

// TestMineDeltaLevel2PromotionInDeepRun pins the fallback where the
// deleted seeded-resume route used to run: in a run six levels deep a
// level-2 promotion sits in the first third of the work. The fallback is
// a cold re-mine of base+delta, so the refreshed result and its border
// snapshot must both be exactly what a cold mine retains.
func TestMineDeltaLevel2PromotionInDeepRun(t *testing.T) {
	base := &Dataset{}
	// 6x {1..6}: frequent at every level 1..6 at minsup 5 — a deep run.
	for i := 0; i < 6; i++ {
		base.Transactions = append(base.Transactions, Transaction{ID: int64(i + 1), Items: []Item{1, 2, 3, 4, 5, 6}})
	}
	// 4x {7,8}: a border pair (and border items) one short of minsup.
	for i := 0; i < 4; i++ {
		base.Transactions = append(base.Transactions, Transaction{ID: int64(i + 7), Items: []Item{7, 8}})
	}
	opts := Options{MinSupportCount: 5, RetainBorder: true}
	snap := mineBorder(t, base, opts)
	if len(snap.Levels) < 5 {
		t.Fatalf("snapshot depth %d; want a deep run", len(snap.Levels))
	}
	// The delta promotes {7,8} (4 -> 6): a level-2 border shift.
	delta := &Dataset{Transactions: []Transaction{
		{ID: 100, Items: []Item{7, 8}},
		{ID: 101, Items: []Item{7, 8}},
	}}
	got, err := MineDelta(context.Background(), base, delta, snap, opts)
	if err != nil {
		t.Fatalf("MineDelta: %v", err)
	}
	want, err := MineAuto(combined(base, delta), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		assertSameCounts(t, "deep-fallback", want, got)
		t.Fatal("fallback counts differ")
	}
	if got.Support([]int64{7, 8}) != 6 {
		t.Fatalf("promoted pair support = %d, want 6", got.Support([]int64{7, 8}))
	}
	// The refreshed snapshot matches the one a cold mine retains.
	assertSameBorder(t, want.Border, got.Border)
}

func TestMineDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base, delta := deltaSplit(rng, 40, 8, 6, 8, 8)
	opts := Options{MinSupportCount: 3}
	snap := mineBorder(t, base, opts)
	ctx := context.Background()

	bad := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBorder) {
			t.Fatalf("%s: got %v, want ErrBorder", name, err)
		}
	}
	_, err := MineDelta(ctx, base, delta, nil, opts)
	bad("nil snapshot", err)

	o := opts
	o.DisablePackedKernels = true
	_, err = MineDelta(ctx, base, delta, snap, o)
	bad("generic kernels", err)

	o = opts
	o.MaxPatternLen = 2
	_, err = MineDelta(ctx, base, delta, snap, o)
	bad("maxlen mismatch", err)

	_, err = MineDelta(ctx, combined(base, delta), delta, snap, opts)
	bad("base size mismatch", err)

	overlap := &Dataset{Transactions: []Transaction{{ID: base.Transactions[0].ID, Items: []Item{1}}}}
	_, err = MineDelta(ctx, base, overlap, snap, opts)
	bad("overlapping trans_id", err)

	dup := &Dataset{Transactions: []Transaction{
		{ID: snap.MaxTid + 1, Items: []Item{1}},
		{ID: snap.MaxTid + 1, Items: []Item{2}},
	}}
	_, err = MineDelta(ctx, base, dup, snap, opts)
	bad("duplicate delta trans_id", err)
}

// TestMineDeltaValidatesOptions: a refresh refuses the options MineAuto
// over base+delta refuses, with the same error, instead of mining the
// pure path at the minsup of 1 an unset threshold resolves to.
func TestMineDeltaValidatesOptions(t *testing.T) {
	base := &Dataset{}
	for tid := int64(1); tid <= 6; tid++ {
		base.Transactions = append(base.Transactions, Transaction{ID: tid, Items: []Item{1, 2, 3}})
	}
	delta := &Dataset{Transactions: []Transaction{{ID: 7, Items: []Item{1, 2}}}}
	snap := mineBorder(t, base, Options{MinSupportCount: 2})
	for _, opts := range []Options{{}, {MinSupportFrac: 1.5}} {
		_, want := MineAuto(combined(base, delta), opts)
		if want == nil {
			t.Fatalf("%+v: MineAuto over base+delta accepted the options", opts)
		}
		res, err := MineDelta(context.Background(), base, delta, snap, opts)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%+v: MineDelta returned (%v, %v), want MineAuto's error %q", opts, res != nil, err, want)
		}
	}
}

// TestMineDeltaCancellation cancels before and during a delta mine; a
// caller-owned pool must end with zero pinned frames either way.
func TestMineDeltaCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base, delta := deltaSplit(rng, 100, 60, 9, 8, 8)
	opts := Options{MinSupportCount: 10, MemoryBudget: 1 << 15}
	snap := mineBorder(t, base, opts)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	pool := storage.NewPool(storage.NewMemStore(), 64)
	_, err := MineDeltaMonitored(cancelled, base, delta, snap, opts, pool, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delta mine: got %v, want context.Canceled", err)
	}
	if pinned := pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames pinned after cancelled delta mine", pinned)
	}

	// Uncancelled, same pool: must succeed and still unwind to zero.
	res, err := MineDeltaMonitored(context.Background(), base, delta, snap, opts, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAuto(combined(base, delta), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Counts, want.Counts) {
		t.Fatal("pooled delta mine diverged")
	}
	if pinned := pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames pinned after pooled delta mine", pinned)
	}
}

// TestMineDeltaBudgetDegradesToRemine pins the tiny-budget path: the
// fallback re-mines under the caller's budget — a full spilling mine —
// and still answers exactly.
func TestMineDeltaBudgetDegradesToRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base, delta := deltaSplit(rng, 80, 80, 9, 7, 7)
	opts := Options{MinSupportCount: 12, MemoryBudget: 1 << 12}
	snap := mineBorder(t, base, opts)
	got, err := MineDelta(context.Background(), base, delta, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAuto(combined(base, delta), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		assertSameCounts(t, "tiny-budget", want, got)
		t.Fatal("budget-degraded delta mine diverged")
	}
}

// assertSameBorder compares snapshots semantically (empty and nil runs
// are the same border).
func assertSameBorder(t *testing.T, want, got *BorderSnapshot) {
	t.Helper()
	if want.MinSup != got.MinSup || want.NumTransactions != got.NumTransactions ||
		want.SalesRows != got.SalesRows || want.MaxTid != got.MaxTid ||
		want.MaxPatternLen != got.MaxPatternLen {
		t.Fatalf("snapshot headers differ: %+v vs %+v", want, got)
	}
	if !reflect.DeepEqual(want.Items, got.Items) {
		t.Fatalf("snapshot dictionaries differ")
	}
	if len(want.Levels) != len(got.Levels) {
		t.Fatalf("snapshot levels %d vs %d", len(want.Levels), len(got.Levels))
	}
	eq := func(lvl int, name string, a, b []uint64, ca, cb []int64) {
		t.Helper()
		if len(a) != len(b) || len(ca) != len(cb) {
			t.Fatalf("level %d %s: %d/%d entries vs %d/%d", lvl, name, len(a), len(ca), len(b), len(cb))
		}
		for i := range a {
			if a[i] != b[i] || ca[i] != cb[i] {
				t.Fatalf("level %d %s entry %d differs", lvl, name, i)
			}
		}
	}
	for i := range want.Levels {
		w, g := &want.Levels[i], &got.Levels[i]
		eq(i+1, "freq", w.FreqKeys, g.FreqKeys, w.FreqCounts, g.FreqCounts)
		eq(i+1, "border", w.BorderKeys, g.BorderKeys, w.BorderCounts, g.BorderCounts)
	}
}

func TestBorderSnapshotRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	base := randomDataset(rng, 90, 8, 12)
	snap := mineBorder(t, base, Options{MinSupportCount: 5})
	path := filepath.Join(t.TempDir(), "base.border")
	if err := SaveBorder(path, snap, false); err != nil {
		t.Fatalf("SaveBorder: %v", err)
	}
	loaded, err := LoadBorder(path)
	if err != nil {
		t.Fatalf("LoadBorder: %v", err)
	}
	assertSameBorder(t, snap, loaded)
	if loaded.Bytes() <= 0 || loaded.Candidates() <= 0 {
		t.Fatalf("degenerate size accounting: bytes=%d candidates=%d", loaded.Bytes(), loaded.Candidates())
	}

	// A delta mined from the loaded snapshot must behave identically.
	_, delta := deltaSplit(rng, 1, 12, 8, 12, 12)
	next := base.Transactions[len(base.Transactions)-1].ID + 1
	for i := range delta.Transactions {
		delta.Transactions[i].ID = next + int64(i)
	}
	opts := Options{MinSupportCount: 5}
	got, err := MineDelta(context.Background(), base, delta, loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAuto(combined(base, delta), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatal("loaded-snapshot delta mine diverged")
	}
}

// TestBorderSnapshotCorruption flips or truncates every region of the
// file; every mutation must be rejected with ErrBorder, never a wrong
// snapshot.
func TestBorderSnapshotCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	base := randomDataset(rng, 40, 6, 8)
	snap := mineBorder(t, base, Options{MinSupportCount: 3})
	dir := t.TempDir()
	path := filepath.Join(dir, "c.border")
	if err := SaveBorder(path, snap, false); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(blob); off += 1 + len(blob)/37 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		p := filepath.Join(dir, "mut.border")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBorder(p); !errors.Is(err, ErrBorder) {
			t.Fatalf("flip at %d: got %v, want ErrBorder", off, err)
		}
	}
	// A version-1 file (bit-packed keys at every level), framed and
	// checksummed as written, is refused whole: setmd mines cold once.
	v1 := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(v1[len(borderMagic):], 1)
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.Checksum(v1[len(borderMagic):len(v1)-4], ckptCRC))
	p := filepath.Join(dir, "v1.border")
	if err := os.WriteFile(p, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBorder(p); !errors.Is(err, ErrBorder) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 snapshot: got %v, want ErrBorder naming version 1", err)
	}
	// A checksummed file whose level-3 key ranks a prefix past the end of
	// F_2 is refused too: a refresh would index the ranks with it.
	if len(snap.Levels) < 3 || len(snap.Levels[2].FreqKeys) == 0 {
		t.Fatalf("fixture needs a frequent level 3, has %d levels", len(snap.Levels))
	}
	off := len(borderMagic) + 8*8 + 8*len(snap.Items)
	for _, l := range snap.Levels[:2] {
		off += 8 + 16*len(l.FreqKeys) + 8 + 16*len(l.BorderKeys)
	}
	off += 8 // level 3's FreqKeys length; its first key follows
	bits := dictBits(len(snap.Items))
	bad := append([]byte(nil), blob...)
	if got := binary.LittleEndian.Uint64(bad[off:]); got != snap.Levels[2].FreqKeys[0] {
		t.Fatalf("offset %d holds %#x, want level 3's first key %#x", off, got, snap.Levels[2].FreqKeys[0])
	}
	binary.LittleEndian.PutUint64(bad[off:], uint64(len(snap.Levels[1].FreqKeys))<<bits)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[len(borderMagic):len(bad)-4], ckptCRC))
	p = filepath.Join(dir, "rank.border")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBorder(p); !errors.Is(err, ErrBorder) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("level-3 prefix rank past F_2: got %v, want ErrBorder naming the range", err)
	}
	for _, cut := range []int{0, 4, len(blob) / 2, len(blob) - 1} {
		p := filepath.Join(dir, "trunc.border")
		if err := os.WriteFile(p, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBorder(p); !errors.Is(err, ErrBorder) {
			t.Fatalf("truncate at %d: got %v, want ErrBorder", cut, err)
		}
	}
}

// TestRetainBorderDoesNotChangeCounts pins the ablation: border capture
// runs the count kernels at threshold 1 and splits afterwards, which
// must be invisible in the result.
func TestRetainBorderDoesNotChangeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 5; trial++ {
		d := randomDataset(rng, 60+trial*25, 9, 10)
		opts := Options{MinSupportCount: int64(3 + trial*2)}
		plain, err := MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.RetainBorder = true
		bordered, err := MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Counts, bordered.Counts) {
			t.Fatalf("trial %d: RetainBorder changed the counts", trial)
		}
		if bordered.Border == nil {
			t.Fatalf("trial %d: no snapshot", trial)
		}
		// Frequent keys in the snapshot mirror the result exactly.
		for k := 1; k <= len(bordered.Counts); k++ {
			if len(bordered.Border.Levels) < k {
				t.Fatalf("trial %d: snapshot missing level %d", trial, k)
			}
			if len(bordered.Border.Levels[k-1].FreqKeys) != len(bordered.Counts[k-1]) {
				t.Fatalf("trial %d: level %d has %d frequent keys, result has %d patterns",
					trial, k, len(bordered.Border.Levels[k-1].FreqKeys), len(bordered.Counts[k-1]))
			}
		}
	}
}

// TestMineDeltaFansOut pins a refresh's passes on the executor's fan-out:
// a delta of more than 2 x costmodel.ParallelMinRows SALES rows at
// MaxWorkers 2 cuts its passes into two chunks, takes the pure path, and
// still equals a cold mine of base+delta, snapshot included.
func TestMineDeltaFansOut(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	base, delta := deltaSplit(rng, 2000, 1500, 8, 40, 40)
	opts := Options{MinSupportFrac: 0.05, MaxWorkers: 2, RetainBorder: true}
	snap := mineBorder(t, base, opts)
	got, err := MineDelta(context.Background(), base, delta, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineAuto(combined(base, delta), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		assertSameCounts(t, "fan-out", want, got)
		t.Fatal("fanned-out refresh diverged")
	}
	assertSameBorder(t, want.Border, got.Border)
	if got.Stats[0].RPrimeRows != int64(delta.NumSalesRows()) {
		t.Fatalf("|R'_1| = %d, want |delta SALES| = %d: the refresh re-mined", got.Stats[0].RPrimeRows, delta.NumSalesRows())
	}
	fanned := false
	for _, st := range got.Stats {
		fanned = fanned || st.Plan.Workers == 2
	}
	if !fanned {
		t.Fatalf("no pass fanned out: %v", got.Stats)
	}
}
