package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"setm/internal/storage"
	"setm/internal/xsort"
)

func TestPackDictOrderPreserving(t *testing.T) {
	items := []int64{-500, -3, 0, 1, 2, 7, 1 << 40}
	dict := newPackDict(items, 1, nil)
	for i, it := range items {
		if got := dict.code(it); got != uint64(i) {
			t.Errorf("code(%d) = %d, want %d", it, got, i)
		}
	}
	// Code order must equal item order so packed-key comparisons match
	// lexicographic pattern comparisons.
	for i := 1; i < len(items); i++ {
		if !(dict.code(items[i-1]) < dict.code(items[i])) {
			t.Errorf("codes not ascending at %d", i)
		}
	}
	if dict.bits != 3 { // 7 items -> codes 0..6 -> 3 bits
		t.Errorf("bits = %d, want 3", dict.bits)
	}
	if got := dict.maxPackedK(); got != 21 {
		t.Errorf("maxPackedK = %d, want 21", got)
	}
}

// TestBuildDictPaths pins both dictionary builders — the presence pass
// with its O(1) look-up table for dense item ids, the radix sort with
// binary search for sparse ones — to one oracle: the sorted distinct
// items, with code(item) the item's rank.
func TestBuildDictPaths(t *testing.T) {
	cases := map[string]struct {
		items   []Item
		wantLUT bool
	}{
		"dense":          {[]Item{5, 3, 9, 3, 4, 5, 8, 7, 6, 3}, true},
		"dense-negative": {[]Item{-3, -1, 0, 2, -2, 1, -3, 2}, true},
		"single":         {[]Item{42, 42, 42}, true},
		"sparse":         {[]Item{1, 1 << 40, -1 << 40, 7, 1 << 40}, false},
		"extremes":       {[]Item{math.MinInt64, math.MaxInt64, 0, math.MinInt64}, false},
		// Span 9 over 10 occurrences passes the presence pre-check, but with
		// only 2 distinct items the table is dropped for binary search.
		"two-far-apart": {[]Item{0, 8, 0, 8, 0, 8, 0, 8, 0, 8}, false},
	}
	for name, c := range cases {
		d := &Dataset{}
		for i := 0; i < len(c.items); i += 2 {
			d.Transactions = append(d.Transactions, Transaction{ID: int64(i), Items: c.items[i:min(i+2, len(c.items))]})
		}
		want := slices.Clone(c.items)
		slices.Sort(want)
		want = slices.Compact(want)
		dict := d.packed().dict
		if !slices.Equal(dict.items, want) {
			t.Errorf("%s: items = %v, want %v", name, dict.items, want)
			continue
		}
		if (dict.lut != nil) != c.wantLUT {
			t.Errorf("%s: look-up table present = %v, want %v", name, dict.lut != nil, c.wantLUT)
		}
		for i, it := range want {
			if got := dict.code(it); got != uint64(i) {
				t.Errorf("%s: code(%d) = %d, want %d", name, it, got, i)
			}
		}
	}
}

func TestRadixSortU64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 100, 4096} {
		keys := make([]uint64, n)
		for i := range keys {
			switch rng.Intn(3) {
			case 0:
				keys[i] = uint64(rng.Intn(50)) // narrow domain: few passes
			case 1:
				keys[i] = rng.Uint64() // full width
			default:
				keys[i] = rng.Uint64() | 1<<63 // exercise the top byte
			}
		}
		want := append([]uint64(nil), keys...)
		slices.Sort(want)
		xsort.RadixSortU64(keys, make([]uint64, n))
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: radix sort mismatch", n)
		}
	}
}

func TestRadixSortRowsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 257, 2000} {
		rows := make([]prow, n)
		for i := range rows {
			rows[i] = prow{Tid: uint64(rng.Intn(40)) ^ tidFlip, Key: uint64(rng.Intn(64))}
		}
		want := append([]prow(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Tid != want[j].Tid {
				return want[i].Tid < want[j].Tid
			}
			return want[i].Key < want[j].Key
		})
		xsort.RadixSortRows(rows, make([]prow, n))
		if !slices.Equal(rows, want) {
			t.Fatalf("n=%d: row radix sort mismatch", n)
		}
		if !prowsSorted(rows) {
			t.Fatalf("n=%d: prowsSorted rejects sorted rows", n)
		}
	}
}

// signedDataset builds a deterministic random dataset, with negative
// item and transaction ids mixed in to exercise the order-preserving
// encodings.
func signedDataset(seed int64, txns, maxLen, nItems int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	id := int64(-5) // negative trans_ids exercise the tid sign flip
	for i := 0; i < txns; i++ {
		id += int64(rng.Intn(7)) + 1
		items := make([]Item, rng.Intn(maxLen)+1)
		for j := range items {
			items[j] = Item(rng.Intn(nItems) - nItems/3)
		}
		d.Transactions = append(d.Transactions, Transaction{ID: id, Items: items})
	}
	return d
}

func TestPackSalesMatchesSalesRelation(t *testing.T) {
	for _, d := range []*Dataset{signedDataset(21, 60, 9, 30), signedDataset(22, 900, 9, 12)} {
		want := salesRelation(d)
		memo := d.packed()
		rows := slices.Clone(memo.rows)
		for i, r := range rows {
			rows[i].Tid = memo.tids[r.Tid] // basket ordinal -> trans_id
		}
		got := unpackRel(relation{stride: 2}, rows, memo.dict)
		if !slices.Equal(got.data, want.data) {
			t.Fatalf("%d transactions: packed sales mismatch:\ngot  %v\nwant %v", len(d.Transactions), got.data, want.data)
		}
	}
}

// TestPackedMatchesGenericDrivers pins the packed engine to the generic
// kernels on random data across the in-memory drivers.
func TestPackedMatchesGenericDrivers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := signedDataset(seed, 90, 10, 24)
		for _, ms := range []int64{2, 5, 12} {
			generic := Options{MinSupportCount: ms, DisablePackedKernels: true}
			packed := Options{MinSupportCount: ms}
			want, err := MineMemory(d, generic)
			if err != nil {
				t.Fatal(err)
			}
			for name, mine := range map[string]func() (*Result, error){
				"memory": func() (*Result, error) { return MineMemory(d, packed) },
				"auto-3workers": func() (*Result, error) {
					o := packed
					o.MaxWorkers = 3
					return MineAuto(d, o)
				},
			} {
				got, err := mine()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				fuzzSameCounts(t, name, want, got)
			}
		}
	}
}

// TestGenericIsOneReference: DisablePackedKernels means one thing on
// every driver — the serial flat reference, whatever fan-out, budget or
// pool was asked for (MinePaged's then does no page I/O) — and that
// reference agrees with the packed kernels.
func TestGenericIsOneReference(t *testing.T) {
	d := signedDataset(5, 400, 9, 20)
	packed, err := MineMemory(d, Options{MinSupportCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	generic := Options{MinSupportCount: 4, DisablePackedKernels: true}
	for name, mine := range map[string]func() (*Result, error){
		"memory": func() (*Result, error) { return MineMemory(d, generic) },
		"auto-4w": func() (*Result, error) {
			o := generic
			o.MaxWorkers = 4
			return MineAuto(d, o)
		},
		"paged-16KiB": func() (*Result, error) {
			o := generic
			o.MemoryBudget = 16 << 10
			r, err := MinePaged(d, o, PagedConfig{PoolFrames: 8})
			if err == nil && r.IO.Accesses() != 0 {
				err = fmt.Errorf("%d page accesses", r.IO.Accesses())
			}
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		},
	} {
		got, err := mine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fuzzSameCounts(t, name, packed, got)
		for _, st := range got.Stats {
			if st.Plan.String() != "generic/resident/1w" {
				t.Errorf("%s k=%d: plan %q, want generic/resident/1w", name, st.K, st.Plan)
			}
		}
	}
}

// wideDomainDataset is 30 transactions sharing six common items among
// ~4800 distinct fillers: 13 bits per code, so patterns of length 5+ no
// longer fit a bit-packed key while the common items stay frequent to k=6.
func wideDomainDataset(t *testing.T) (d *Dataset, maxK, maxLen int) {
	common := []Item{1, 2, 3, 4, 5, 6}
	d = &Dataset{}
	filler := int64(1000)
	for i := 0; i < 30; i++ {
		items := append([]Item(nil), common...)
		for j := 0; j < 160; j++ {
			items = append(items, filler)
			filler++
		}
		d.Transactions = append(d.Transactions, Transaction{ID: int64(i + 1), Items: items})
	}
	maxK = d.packed().dict.maxPackedK()
	if maxK >= len(common) {
		t.Fatalf("setup: maxPackedK = %d, want patterns of length %d past it", maxK, len(common))
	}
	return d, maxK, len(common)
}

// TestPackedWideDomainFallback mines the wide-domain set past the
// 64/bits boundary: every pass of the serial and the fanned-out executor
// stays on the packed kernels, with the reference's counts and per-pass
// cardinalities.
func TestPackedWideDomainFallback(t *testing.T) {
	d, maxK, maxLen := wideDomainDataset(t)
	opts := Options{MinSupportCount: 25}
	want, err := MineMemory(d, Options{MinSupportCount: 25, DisablePackedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.MaxLen() != maxLen {
		t.Fatalf("setup: MaxLen = %d, want %d (must cross k = %d)", want.MaxLen(), maxLen, maxK)
	}
	for name, mine := range map[string]func() (*Result, error){
		"memory": func() (*Result, error) { return MineMemory(d, opts) },
		"auto-3workers": func() (*Result, error) {
			o := opts
			o.MaxWorkers = 3
			return MineAuto(d, o)
		},
	} {
		got, err := mine()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fuzzSameCounts(t, name, want, got)
		if len(got.Stats) != len(want.Stats) {
			t.Fatalf("%s: %d passes, want %d", name, len(got.Stats), len(want.Stats))
		}
		for i, st := range got.Stats {
			ref := want.Stats[i]
			if st.Plan.Kernel != KernelPacked || st.RPrimeRows != ref.RPrimeRows || st.RRows != ref.RRows {
				t.Errorf("%s k=%d: plan %q |R'|=%d |R|=%d, want packed and %d/%d", name, st.K, st.Plan,
					st.RPrimeRows, st.RRows, ref.RPrimeRows, ref.RRows)
			}
		}
	}
}

// TestStepRefusesKeysPastOneWord pins the executor's width check: a pass
// whose keys would not fit 64 bits — two codes of more than 32 bits at
// k = 2, |C_{k-1}|*2^bits past 2^64 from k = 3 — fails with errKeyWidth
// before it reads a row or touches the pool: the stepper holds no
// relation (a read would panic) and its pool fails every access.
func TestStepRefusesKeysPastOneWord(t *testing.T) {
	for _, c := range []struct {
		k, bits, prev int
		fits          bool
	}{
		{2, 32, 0, true}, {2, 33, 0, false},
		{3, 60, 16, true}, {3, 60, 17, false},
		{7, 16, 1 << 48, true}, {7, 16, 1<<48 + 1, false},
	} {
		dict := &packDict{bits: uint(c.bits)}
		if got := dict.keyFits(c.k, c.prev); got != c.fits {
			t.Errorf("keyFits(k=%d, |C|=%d) at %d bits = %v, want %v", c.k, c.prev, c.bits, got, c.fits)
		}
		if c.fits || c.prev > 1<<10 {
			continue
		}
		fs := storage.NewFaultStore(storage.NewMemStore())
		fs.FailReadAfter, fs.FailWriteAfter, fs.FailAllocAfter = 0, 0, 0
		pool := storage.NewPool(fs, 4)
		s := newExecStepper(signedDataset(1, 10, 3, 5), Options{MemoryBudget: 16 << 10}, PagedConfig{PoolFrames: 4})
		s.attachPool(pool)
		s.dict, s.prevC = dict, make([]ItemsetCount, c.prev)
		// An R_{k-1} whose pass would spill, so that a refusal made any
		// later would have read pages.
		s.prevRPrime, s.prevRRows = 1<<20, 1<<20
		if p := s.nextPlan(c.k, s.prevRPrime, s.prevRRows); p.String() != "packed/spilled/1w" {
			t.Fatalf("k=%d at %d bits: pass planned %s, want packed/spilled/1w", c.k, c.bits, p)
		}
		_, _, err := s.step(c.k, 1)
		if !errors.Is(err, errKeyWidth) {
			t.Errorf("k=%d at %d bits, |C_{k-1}| = %d: step returned %v, want errKeyWidth", c.k, c.bits, c.prev, err)
		}
		if n := pool.Stats.Accesses(); n != 0 {
			t.Errorf("k=%d at %d bits: %d page accesses before the refusal", c.k, c.bits, n)
		}
	}
}

// TestBorderSnapshotPackedWidth pins which mines keep a border snapshot:
// the snapshot is bit-packed at every level, so a mine with a level past
// maxPackedK (the wide-domain set) keeps none, with counts unchanged,
// while one whose last level is exactly maxPackedK keeps its snapshot
// and MineDelta on it is a cold mine of base+delta.
func TestBorderSnapshotPackedWidth(t *testing.T) {
	d, maxK, _ := wideDomainDataset(t)
	want, err := MineMemory(d, Options{MinSupportCount: 25, DisablePackedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineAuto(d, Options{MinSupportCount: 25, RetainBorder: true})
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "wide, border retained", want, got)
	if got.Border != nil {
		t.Errorf("levels to k=%d, past maxPackedK = %d, kept a %d-level border", len(got.Stats), maxK, len(got.Border.Levels))
	}

	// Three common items among the same fillers: C_3 is the last frequent
	// level, and pass maxPackedK = 4 the last one run (its extensions are
	// all single-transaction fillers).
	base := &Dataset{}
	for _, tx := range d.Transactions {
		base.Transactions = append(base.Transactions, Transaction{ID: tx.ID, Items: tx.Items[3:]})
	}
	opts := Options{MinSupportCount: 25, RetainBorder: true}
	res, err := MineAuto(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != maxK || res.Border == nil || len(res.Border.Levels) != maxK {
		t.Fatalf("last level k=%d (maxPackedK %d): border %v", len(res.Stats), maxK, res.Border != nil)
	}
	delta := &Dataset{}
	for i := int64(1); i <= 5; i++ {
		delta.Transactions = append(delta.Transactions, Transaction{ID: 100 + i, Items: []Item{4, 5, 6, 1000 + i, 90_000 + i}})
	}
	all := &Dataset{Transactions: append(slices.Clone(base.Transactions), delta.Transactions...)}
	cold, err := MineAuto(all, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := MineDelta(context.Background(), base, delta, res.Border, opts)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "delta vs cold", cold, inc)
}

// TestSortsSkippedCounted asserts the sortedness fast path actually
// fires: extension and filtering preserve (trans_id, items) order, so
// every iteration past the first should skip at least the re-sort of
// R_{k-1} and the post-filter sort, on both substrates. The packed k=2
// counts its pairs off SALES and tallies the three sorts a table-counted
// pass skips.
func TestSortsSkippedCounted(t *testing.T) {
	d := signedDataset(4, 120, 8, 14)
	for _, opts := range []Options{
		{MinSupportCount: 4},
		{MinSupportCount: 4, DisablePackedKernels: true},
	} {
		res, err := MineMemory(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLen() < 2 {
			t.Fatalf("setup: need at least two iterations, got %d", res.MaxLen())
		}
		for _, st := range res.Stats[1:] {
			if st.RRows > 0 && st.SortsSkipped < 2 {
				t.Errorf("packed=%v k=%d: SortsSkipped = %d, want >= 2",
					!opts.DisablePackedKernels, st.K, st.SortsSkipped)
			}
		}
		if st := res.Stats[1]; !opts.DisablePackedKernels && (st.Plan.Count != CountPairs || st.SortsSkipped != 3) {
			t.Errorf("packed k=2: plan %s with %d sorts skipped, want pairs and 3", st.Plan, st.SortsSkipped)
		}
	}
}

// TestPackedSteadyStateAllocs pins the arena reuse: once the pool is
// warm, a whole mining run should stay well under 100 allocations.
func TestPackedSteadyStateAllocs(t *testing.T) {
	d := signedDataset(11, 3000, 10, 50)
	opts := Options{MinSupportCount: 40}
	if _, err := MineMemory(d, opts); err != nil { // warm the arena pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MineMemory(d, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("steady-state MineMemory allocs = %.0f, want <= 100", allocs)
	}
}

// TestColdArenaExtendsInOneAllocation pins what keeps the first mine's
// peak memory the same from process to process: packedExtendRows is
// exactly len(packedExtend), and a cold arena's R'_2 buffer is allocated
// at that size instead of grown to it (the materialized pass 2,
// MinePaged's).
func TestColdArenaExtendsInOneAllocation(t *testing.T) {
	d := signedDataset(11, 3000, 10, 50)
	memo := d.packed()
	dict, sales := memo.dict, memo.rows
	ext := packedExtend(sales, &memo.baskets, dict.bits, nil, nil)
	if got := packedExtendRows(sales, &memo.baskets, dict.bits); got != len(ext) || got == 0 {
		t.Fatalf("packedExtendRows = %d, packedExtend made %d rows", got, len(ext))
	}
	if got := packedExtendRows(ext, &memo.baskets, dict.bits); got != len(packedExtend(ext, &memo.baskets, dict.bits, nil, nil)) {
		t.Fatalf("k=3: packedExtendRows = %d, packedExtend disagrees", got)
	}

	st := newExecStepper(d, Options{MinSupportCount: 40}, PagedConfig{}.withDefaults())
	st.paperPaged = true
	defer st.release()
	if _, _, err := st.init(40); err != nil {
		t.Fatal(err)
	}
	st.ar.wRows[0] = nil // cold, whatever the pool held
	if _, sz, err := st.step(2, 40); err != nil || int(sz.RPrimeRows) != len(ext) || cap(st.ar.wRows[0]) != len(ext) {
		t.Fatalf("cold step 2: |R'_2| = %d, cap(wRows[0]) = %d, want both %d (err %v)", sz.RPrimeRows, cap(st.ar.wRows[0]), len(ext), err)
	}
}

// TestParallelPassHoldsOneRPrime pins what the fan-out is for: a
// two-worker pass keeps each chunk of R'_k in the slot it was extended
// into, so an arena with cold slots ends the mine holding one R'_k — not
// the chunks and a gathered copy of them, which is 2x — and each cold slot
// was sized by packedExtendRows, not grown to. The pass is MineAuto's at
// MaxWorkers 2 whose R'_k is the mine's largest: pass 3, the first to
// extend into the slots (pass 2 counts its pairs off SALES).
func TestParallelPassHoldsOneRPrime(t *testing.T) {
	d := signedDataset(17, 9000, 12, 60)
	const minSup = 30
	s := newExecStepper(d, Options{MinSupportCount: minSup, MaxWorkers: 2}, PagedConfig{}.withDefaults())
	if _, _, err := s.init(minSup); err != nil {
		t.Fatal(err)
	}
	defer s.release()
	clear(s.ar.wRows) // cold slots: nothing a pooled arena's last mine left behind
	var maxRPrime int64
	for k := 2; ; k++ {
		ck, sz, err := s.step(k, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if k == 3 {
			if sz.RPrimeRows < 100_000 || sz.Plan.Workers != 2 {
				t.Fatalf("setup: k=3 ran %s over |R'_3| = %d, want 2w over >= 100k", sz.Plan, sz.RPrimeRows)
			}
			var held int64
			for _, c := range s.ar.wRows[:2] {
				held += int64(cap(c))
			}
			if held != sz.RPrimeRows {
				t.Errorf("cold slots hold %d rows for an R'_3 of %d: not sized by packedExtendRows", held, sz.RPrimeRows)
			}
		} else if k > 3 && sz.RPrimeRows > maxRPrime {
			t.Fatalf("setup: |R'_%d| = %d outgrows |R'_3| = %d", k, sz.RPrimeRows, maxRPrime)
		}
		if k >= 3 {
			maxRPrime = max(maxRPrime, sz.RPrimeRows)
		}
		if len(ck) == 0 {
			break
		}
	}
	var held int64
	for _, c := range s.ar.wRows {
		held += int64(cap(c))
	}
	if limit := maxRPrime + maxRPrime/4; held > limit {
		t.Errorf("arena holds %d extension rows after a two-worker mine, max |R'_k| = %d (limit %d)", held, maxRPrime, limit)
	}
}

// unpackRel appends bit-packed rows of k-item patterns (R_1's codes, or
// MineDelta's keys) to the flat relation rel of stride k+1: the packed
// kernels' results in the reference's form.
func unpackRel(rel relation, rows []prow, dict *packDict) relation {
	k := rel.stride - 1
	mask := uint64(1)<<dict.bits - 1
	for _, r := range rows {
		rel.data = append(rel.data, int64(r.Tid^tidFlip))
		for c := 0; c < k; c++ {
			rel.data = append(rel.data, dict.items[(r.Key>>(uint(k-1-c)*dict.bits))&mask])
		}
	}
	return rel
}

// TestBuildKeyBitmap pins the key index both ways: over a narrow key
// space its bitmap holds exactly the C_k keys and its rank directory
// gives every key's position, over a wide one there is no bitmap and
// the rank comes from binary search — the same positions.
func TestBuildKeyBitmap(t *testing.T) {
	ar := newMineArena()
	defer ar.release()
	keys := []uint64{0, 3, 63, 64, 130, 4095}
	if x := buildKeyIndex(keys, 1<<maxFilterBitmapBits+1, ar); x.dir != nil {
		t.Fatal("bitmap built for an over-wide key space")
	} else {
		for i, k := range keys {
			if got := x.rank(k); got != uint64(i) {
				t.Fatalf("binary-search rank(%d) = %d, want %d", k, got, i)
			}
		}
	}
	x := buildKeyIndex(keys, 4096, ar)
	if x.dir == nil {
		t.Fatal("no bitmap for a 4096-point key space")
	}
	for k := uint64(0); k < 4096; k++ {
		i, want := slices.BinarySearch(keys, k)
		got := x.dir[k>>6].bits&(1<<(k&63)) != 0
		if got != want {
			t.Fatalf("bitmap[%d] = %v, want %v", k, got, want)
		}
		if want && x.rank(k) != uint64(i) {
			t.Fatalf("rank(%d) = %d, want %d", k, x.rank(k), i)
		}
	}
}
