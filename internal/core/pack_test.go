package core

import (
	"context"
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
		var ar mineArena
		dict := buildDict(d, &ar)
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
	// The second data set is long enough to be packed in ranges, and its
	// baskets repeat items, so deduplication leaves gaps between the
	// ranges' stretches that packSales must close.
	for _, d := range []*Dataset{signedDataset(21, 60, 9, 30), signedDataset(22, 900, 9, 12)} {
		want := salesRelation(d)
		for _, workers := range []int{1, 2, 3, 7, 5000} {
			ar := newMineArena()
			dict := buildDict(d, ar)
			rows := packSales(d, dict, ar, workers)
			got := unpackRel(relation{stride: 2}, rows, dict, nil, nil)
			if !slices.Equal(got.data, want.data) {
				t.Fatalf("%d transactions, %d workers: packed sales mismatch:\ngot  %v\nwant %v", len(d.Transactions), workers, got.data, want.data)
			}
			ar.release()
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
				"memory":   func() (*Result, error) { return MineMemory(d, packed) },
				"parallel": func() (*Result, error) { return MineParallel(d, packed, 3) },
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
		"memory":     func() (*Result, error) { return MineMemory(d, generic) },
		"parallel-3": func() (*Result, error) { return MineParallel(d, generic, 3) },
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
// longer fit the 64-bit key while the common items stay frequent to k=6.
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
	ar := newMineArena()
	maxK = buildDict(d, ar).maxPackedK()
	ar.release()
	if maxK >= len(common) {
		t.Fatalf("setup: maxPackedK = %d does not force a fallback before k=%d", maxK, len(common))
	}
	return d, maxK, len(common)
}

// TestPackedWideDomainFallback forces the mid-run fallback: the engine
// must hand off to the generic kernels without changing any result.
func TestPackedWideDomainFallback(t *testing.T) {
	d, _, maxLen := wideDomainDataset(t)
	opts := Options{MinSupportCount: 25}
	want, err := MineMemory(d, Options{MinSupportCount: 25, DisablePackedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.MaxLen() != maxLen {
		t.Fatalf("setup: MaxLen = %d, want %d (must cross the packed boundary)", want.MaxLen(), maxLen)
	}
	got, err := MineMemory(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "memory-fallback", want, got)
	gotPar, err := MineParallel(d, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameCounts(t, "parallel-fallback", want, gotPar)
}

// TestParallelHandOffReturnsArena drives the fanned-out executor across
// the packed boundary: packed/resident/4w through k = maxPackedK, then at
// maxPackedK+1 every live row (and only those) lands in the one serial
// flat reference, sorted, the arena goes back to the pool, and the flat
// reference finishes the pass with the reference's cardinalities.
func TestParallelHandOffReturnsArena(t *testing.T) {
	d, maxK, _ := wideDomainDataset(t)
	const minSup = 25
	opts := Options{MinSupportCount: minSup}
	want, err := MineMemory(d, Options{MinSupportCount: minSup, DisablePackedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	s := newExecStepper(d, opts, PagedConfig{}.withDefaults(), fixedStrategy(4, false))
	defer s.release()
	if _, _, err := s.init(minSup); err != nil {
		t.Fatal(err)
	}
	if len(s.rk.mem) < parallelMinRows {
		t.Fatalf("setup: |R_1| = %d never fans out", len(s.rk.mem))
	}
	var sz iterSizes
	for k := 2; k <= maxK; k++ {
		if _, sz, err = s.step(k, minSup); err != nil {
			t.Fatal(err)
		}
		if s.fbFlat != nil || sz.plan.Kernel != KernelPacked || sz.plan.Workers != 4 {
			t.Fatalf("k=%d: left the fanned-out packed plan early (%s)", k, sz.plan)
		}
	}
	rkRows, joinRows := len(s.rk.mem), len(s.sales.mem)
	if int64(rkRows) != sz.rRows || sz.rRows != want.Stats[maxK-1].RRows {
		t.Fatalf("k=%d: executor holds %d rows, pass reported %d, reference %d", maxK, rkRows, sz.rRows, want.Stats[maxK-1].RRows)
	}

	ck, sz, err := s.step(maxK+1, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if s.fbFlat == nil || sz.plan.String() != "generic/resident/1w" {
		t.Fatalf("k=%d: plan %q, want the flat reference", maxK+1, sz.plan)
	}
	if got := s.fbFlat.joinSide.rows(); got != joinRows || !relationSorted(s.fbFlat.joinSide, 0) {
		t.Errorf("join side: %d rows (sorted=%v), executor held %d", got, relationSorted(s.fbFlat.joinSide, 0), joinRows)
	}
	if st := want.Stats[maxK]; sz.rPrime != st.RPrimeRows || sz.rRows != st.RRows || len(ck) != st.CCount {
		t.Errorf("k=%d: |R'|=%d |R|=%d |C|=%d, reference %d/%d/%d — rows lost in the hand-off",
			maxK+1, sz.rPrime, sz.rRows, len(ck), st.RPrimeRows, st.RRows, st.CCount)
	}
	if s.ar != nil || s.dict != nil || s.rk != nil || s.sales != nil {
		t.Error("packed state or arena still held after the hand-off")
	}
}

// TestSpilledHandOffReturnsArena is the budgeted twin of
// TestParallelHandOffReturnsArena. Under a 16 KiB budget every packed pass
// of the wide-domain set is packed/spilled/1w over runs; at maxPackedK+1
// the executor decodes R_{k-1} and R_1 from their runs into the flat
// reference, frees every page they held, returns the arena and charges
// the decode's pool reads to that pass. Through the public drivers
// (MinePaged, and MineAutoMonitored on a caller-owned pool) the counts and
// every pass's cardinalities are the flat reference's, nothing stays
// pinned, and a second identical mine on the same pool allocates no page.
func TestSpilledHandOffReturnsArena(t *testing.T) {
	d, maxK, _ := wideDomainDataset(t)
	const minSup = 25
	opts := Options{MinSupportCount: minSup, MemoryBudget: 16 << 10}
	want, err := MineMemory(d, Options{MinSupportCount: minSup, DisablePackedKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	checkPasses := func(label string, got *Result) {
		t.Helper()
		fuzzSameCounts(t, label, want, got)
		if len(got.Stats) != len(want.Stats) {
			t.Fatalf("%s: %d passes, want %d", label, len(got.Stats), len(want.Stats))
		}
		for i, st := range got.Stats {
			ref := want.Stats[i]
			if st.RPrimeRows != ref.RPrimeRows || st.RRows != ref.RRows || st.CCount != ref.CCount {
				t.Errorf("%s k=%d: |R'|=%d |R|=%d |C|=%d, reference %d/%d/%d", label, st.K,
					st.RPrimeRows, st.RRows, st.CCount, ref.RPrimeRows, ref.RRows, ref.CCount)
			}
			p := st.Plan
			if st.K <= maxK && (p.Kernel != KernelPacked || p.Regime != RegimeSpilled || p.Workers != 1 || p.Count == "") {
				t.Errorf("%s k=%d: plan %q, want packed/spilled/1w/*", label, st.K, p)
			}
			if st.K > maxK && p.String() != "generic/resident/1w" {
				t.Errorf("%s k=%d: plan %q, want generic/resident/1w", label, st.K, p)
			}
		}
	}

	// The executor, pass by pass.
	store := storage.NewMemStore()
	pool := storage.NewPool(store, 8)
	s := newExecStepper(d, opts, PagedConfig{PoolFrames: 8}, fixedStrategy(1, true))
	s.attachPool(pool)
	defer s.release()
	if _, _, err := s.init(minSup); err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= maxK; k++ {
		if _, _, err := s.step(k, minSup); err != nil {
			t.Fatal(err)
		}
	}
	if s.rk.resident() || s.sales.resident() {
		t.Fatalf("setup: R_%d spilled %v, R_1 spilled %v — the decode would read no run", maxK, !s.rk.resident(), !s.sales.resident())
	}
	joinRows := s.sales.rows()
	accBefore := pool.Stats.Accesses()
	ck, sz, err := s.step(maxK+1, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if s.fbFlat == nil || sz.plan.String() != "generic/resident/1w" {
		t.Fatalf("k=%d: plan %q, want the flat reference", maxK+1, sz.plan)
	}
	if got := s.fbFlat.joinSide.rows(); int64(got) != joinRows || !relationSorted(s.fbFlat.joinSide, 0) {
		t.Errorf("join side: %d rows (sorted=%v), the run held %d", got, relationSorted(s.fbFlat.joinSide, 0), joinRows)
	}
	if st := want.Stats[maxK]; sz.rPrime != st.RPrimeRows || sz.rRows != st.RRows || len(ck) != st.CCount {
		t.Errorf("k=%d: |R'|=%d |R|=%d |C|=%d, reference %d/%d/%d — rows lost in the hand-off",
			maxK+1, sz.rPrime, sz.rRows, len(ck), st.RPrimeRows, st.RRows, st.CCount)
	}
	if io := pool.Stats.Accesses() - accBefore; sz.pageIO != io || io == 0 {
		t.Errorf("k=%d: pass charged %d page I/Os, the decode made %d", maxK+1, sz.pageIO, io)
	}
	if s.ar != nil || s.dict != nil || s.rk != nil || s.sales != nil {
		t.Error("packed state or arena still held after the hand-off")
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the hand-off", n)
	}
	// Every page is back on the free list: a run as large as the whole
	// store is served without growing it.
	np := store.NumPages()
	run, err := xsort.SpillKeys(pool, make([]uint64, np*storage.WordsPerPage))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.NumPages(); got != np {
		t.Errorf("re-spill grew the store %d -> %d pages: the hand-off kept runs", np, got)
	}
	run.Free(pool)

	// The public drivers.
	paged, err := MinePaged(d, opts, PagedConfig{PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkPasses("paged", paged.Result)
	store = storage.NewMemStore()
	pool = storage.NewPool(store, 8)
	for run := 1; run <= 2; run++ {
		got, err := MineAutoMonitored(context.Background(), d, opts, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkPasses(fmt.Sprintf("auto run %d", run), got)
		if n := pool.PinnedFrames(); n != 0 {
			t.Errorf("auto run %d: %d frames pinned", run, n)
		}
		if run == 1 {
			np = store.NumPages()
		} else if got := store.NumPages(); got != np {
			t.Errorf("second mine grew the store %d -> %d pages: the first left runs allocated", np, got)
		}
	}
}

// TestSortsSkippedCounted asserts the sortedness fast path actually
// fires: extension and filtering preserve (trans_id, items) order, so
// every iteration past the first should skip at least the re-sort of
// R_{k-1} and the post-filter sort, on both substrates.
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
// at that size instead of grown to it.
func TestColdArenaExtendsInOneAllocation(t *testing.T) {
	d := signedDataset(11, 3000, 10, 50)
	ar := new(mineArena)
	dict := buildDict(d, ar)
	sales := packSales(d, dict, ar, 1)
	ext := packedExtend(sales, sales, dict.bits, nil, nil)
	if got := packedExtendRows(sales, sales, dict.bits); got != len(ext) || got == 0 {
		t.Fatalf("packedExtendRows = %d, packedExtend made %d rows", got, len(ext))
	}
	if got := packedExtendRows(ext, sales, dict.bits); got != len(packedExtend(ext, sales, dict.bits, nil, nil)) {
		t.Fatalf("k=3: packedExtendRows = %d, packedExtend disagrees", got)
	}

	st := newExecStepper(d, Options{MinSupportCount: 40}, PagedConfig{}.withDefaults(), fixedStrategy(1, false))
	defer st.release()
	if _, _, err := st.init(40); err != nil {
		t.Fatal(err)
	}
	st.ar.wRows[0] = nil // cold, whatever the pool held
	if _, sz, err := st.step(2, 40); err != nil || int(sz.rPrime) != len(ext) || cap(st.ar.wRows[0]) != len(ext) {
		t.Fatalf("cold step 2: |R'_2| = %d, cap(wRows[0]) = %d, want both %d (err %v)", sz.rPrime, cap(st.ar.wRows[0]), len(ext), err)
	}
}

// TestParallelPassHoldsOneRPrime pins what the fan-out is for: a
// two-worker pass keeps each chunk of R'_k in the slot it was extended
// into, so an arena with cold slots ends the mine holding one R'_k — not the chunks
// and a gathered copy of them, which is 2x — and each cold slot was sized
// by packedExtendRows, not grown to.
func TestParallelPassHoldsOneRPrime(t *testing.T) {
	d := signedDataset(17, 9000, 12, 60)
	const minSup = 30
	s := newExecStepper(d, Options{MinSupportCount: minSup}, PagedConfig{}.withDefaults(), fixedStrategy(2, false))
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
		if k == 2 {
			if sz.rPrime < 100_000 {
				t.Fatalf("setup: |R'_2| = %d, want >= 100k", sz.rPrime)
			}
			var held int64
			for _, c := range s.ar.wRows[:2] {
				held += int64(cap(c))
			}
			if held != sz.rPrime {
				t.Errorf("cold slots hold %d rows for an R'_2 of %d: not sized by packedExtendRows", held, sz.rPrime)
			}
		}
		maxRPrime = max(maxRPrime, sz.rPrime)
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
