package core

import (
	"context"
	"errors"
	"fmt"
	"setm/internal/xsort"
	"slices"
	"testing"

	"setm/internal/storage"
)

// pairsDataset reads fuzz bytes as baskets: a byte that is 0 mod 16 ends
// the current basket (so baskets may be empty), and ends the trans_id too
// unless its high bit is set — then the next basket repeats it, a
// trans_id spread over two transactions. Other bytes are items, -4..11,
// repeats included. Trans_ids start below zero. 2^width singleton
// transactions of unseen items follow, which widen the item codes
// without adding a pair.
func pairsDataset(data []byte, width uint) *Dataset {
	d := &Dataset{}
	tid := int64(-3)
	var items []Item
	for _, b := range data {
		if b%16 != 0 {
			items = append(items, Item(b%16)-5)
			continue
		}
		d.Transactions = append(d.Transactions, Transaction{ID: tid, Items: items})
		items = nil
		if b < 128 {
			tid += 1 + int64(b>>5)
		}
	}
	d.Transactions = append(d.Transactions, Transaction{ID: tid, Items: items})
	for i := 0; i < 1<<width; i++ {
		d.Transactions = append(d.Transactions, Transaction{ID: int64(1000 + i), Items: []Item{Item(1000 + i)}})
	}
	return d
}

// pairsCuts is the chunking of n SALES rows at one, two and three
// workers, as bounds lo[0] = 0 < ... < lo[W] = n: the two-worker cut
// falls inside the first basket from position at that has two rows, when
// there is one, and the three-worker cut halves what follows.
func pairsCuts(rows []prow, at int) [][]int {
	n := len(rows)
	cut := n / 2
	for p := at % n; p+1 < n; p++ {
		if rows[p].Tid == rows[p+1].Tid {
			cut = p + 1
			break
		}
	}
	return [][]int{{0, n}, {0, cut, n}, {0, cut, (cut + n + 1) / 2, n}}
}

// FuzzPairs cross-checks the pairs pass against the materialized pass 2
// it replaces: over SALES cut into one, two and three chunks (a cut
// inside a basket), the summed chunk tables of scan 1 must hold R'_2's
// counts — C_2's keys and counts at threshold 1 (border retention) and at
// the drawn one — and scan 2's chunks must concatenate to the filter of
// R'_2 by C_2, row for row; the memo's |R'_2| must be len(packedExtend). Past 11-bit codes C_2 has no bitmap and
// scan 2 searches; past 10-bit codes the count tables are not built. Then
// whole mines: the resident pairs pass (MineAuto) and the streaming one
// (MineAuto under a one-byte budget, which every pass outgrows, so each is
// planned packed/spilled/1w with the buffers a 16 KiB budget gets: one page
// each) must equal MinePaged's materialized k=2 — counts, every pass's
// |R'_k| and |R_k|, and the retained border.
func FuzzPairs(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 4, 5, 6, 7}, uint8(0), uint8(1), uint8(0))
	f.Add([]byte{1, 1, 2, 128, 2, 3, 0, 0, 5, 0, 3, 4, 5, 6, 0, 9}, uint8(3), uint8(2), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 2, 3, 4, 0, 3, 4, 5, 6, 0, 255, 1}, uint8(10), uint8(1), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 2, 3, 4, 0, 3, 4, 5, 6, 0, 255, 1}, uint8(11), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, widthRaw, minSupRaw, cutRaw uint8) {
		if len(data) > 200 {
			data = data[:200]
		}
		d := pairsDataset(data, uint(widthRaw%12))
		memo := d.packed()
		sales, dict := memo.rows, memo.dict
		bits := dict.bits
		if 2*bits > maxCountTableBits {
			return // past the pairs pass's catalogue
		}
		rPrime := packedExtend(sales, &memo.baskets, bits, nil, nil)
		if int64(len(rPrime)) != memo.pairs {
			t.Fatalf("|R'_2| = %d, the memo counts %d", len(rPrime), memo.pairs)
		}
		var wantTab []uint32
		if 2*bits <= 20 {
			wantTab = tableCountRows(rPrime, nil, bitCells(dict, 2))
		}
		keys := make([]uint64, len(rPrime))
		for i, r := range rPrime {
			keys[i] = r.Key
		}
		slices.Sort(keys)
		ar := newMineArena()
		defer ar.release()
		for _, ms := range []int64{1, int64(minSupRaw%4) + 1} {
			want := xsort.CountRuns(keys, ms, pkCounts{})
			idx := buildKeyIndex(want.Keys, dict.bitSpace(2), ar)
			if (idx.dir == nil) != (2*bits > maxFilterBitmapBits) {
				t.Fatalf("%d-bit codes: bitmap %v", bits, idx.dir != nil)
			}
			wantR2 := idx.filter(rPrime, nil)
			for _, lo := range pairsCuts(sales, int(cutRaw)) {
				W := len(lo) - 1
				if wantTab != nil {
					tabs := make([][]uint32, W)
					for i := range tabs {
						tabs[i] = make([]uint32, len(wantTab))
						pairsCount(sales, memo.starts, lo[i], lo[i+1], bits, tabs[i])
					}
					if got := xsort.EmitCountTable(sumTables(tabs), ms, pkCounts{}); !samePkCounts(got, want) {
						t.Fatalf("W=%d cuts %v minSup=%d: C_2 %v:%v, materialized %v:%v", W, lo, ms, got.Keys, got.Counts, want.Keys, want.Counts)
					}
				}
				var got []prow
				for i := 0; i < W; i++ {
					got = pairsEmit(sales, memo.starts, lo[i], lo[i+1], bits, &idx, got)
				}
				if !slices.Equal(got, wantR2) {
					t.Fatalf("W=%d cuts %v minSup=%d: R_2 %v, materialized %v", W, lo, ms, got, wantR2)
				}
			}
		}

		opts := Options{MinSupportCount: int64(minSupRaw%4) + 1, MaxPatternLen: 4, RetainBorder: true}
		paged := opts
		paged.MemoryBudget = -1
		want, err := MinePaged(d, paged, PagedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		spilled := opts
		spilled.MemoryBudget = 1
		streamed, err := MineAuto(d, spilled)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range streamed.Stats {
			if p := st.Plan; p.String() != "packed/spilled/1w/"+p.Count {
				t.Fatalf("one-byte budget k=%d: plan %s, want packed/spilled/1w/*", st.K, p)
			}
		}
		auto, err := MineAuto(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Result{auto, streamed} {
			label := got.Stats[0].Plan.Regime
			fuzzSameCounts(t, label, want.Result, got)
			for i, w := range want.Stats {
				if g := got.Stats[i]; g.RPrimeRows != w.RPrimeRows || g.RRows != w.RRows {
					t.Fatalf("%s k=%d (%s): |R'|=%d |R|=%d, materialized %d/%d", label, w.K, g.Plan, g.RPrimeRows, g.RRows, w.RPrimeRows, w.RRows)
				}
			}
			if (want.Border == nil) != (got.Border == nil) {
				t.Fatalf("%s: border retained %v, materialized %v", label, got.Border != nil, want.Border != nil)
			}
			if want.Border != nil {
				assertSameBorder(t, want.Border, got.Border)
			}
		}
	})
}

// pairsFixture is 1,200 baskets of 20 items over 40 (6-bit codes), 9
// distinct ones each: 10,800 SALES rows, which MineAuto fans out at four
// workers, with every cut inside a basket.
func pairsFixture() *Dataset {
	d := &Dataset{}
	for i := 0; i < 1200; i++ {
		items := make([]Item, 20)
		for j := range items {
			items[j] = Item((i*7 + j*j*3) % 40)
		}
		d.Transactions = append(d.Transactions, Transaction{ID: int64(3*i - 1000), Items: items})
	}
	return d
}

// TestPairsParallelTables runs the fanned-out pairs pass — one count
// table and one R_2 buffer per worker, tables summed, buffers gathered —
// at W = 2 and 4 (Options.MaxWorkers) against the materialized pass 2 of
// MinePaged's unbudgeted plan: the same C_2, |R'_2| and R_2, row for row.
// CI runs it under -race -count=10.
func TestPairsParallelTables(t *testing.T) {
	d := pairsFixture()
	const minSup = 60
	pass2 := func(workers int, materialize bool) ([]ItemsetCount, IterationStat, []prow) {
		s := newExecStepper(d, Options{MinSupportCount: minSup, MaxWorkers: workers}, PagedConfig{}.withDefaults())
		s.paperPaged = materialize
		defer s.release()
		if _, _, err := s.init(minSup); err != nil {
			t.Fatal(err)
		}
		c2, sz, err := s.step(2, minSup)
		if err != nil {
			t.Fatal(err)
		}
		return c2, sz, slices.Clone(s.rk.mem)
	}
	wantC, wantSz, wantR := pass2(1, true)
	if len(wantC) == 0 || len(wantR) == 0 {
		t.Fatalf("setup: |C_2| = %d, |R_2| = %d", len(wantC), len(wantR))
	}
	for _, w := range []int{1, 2, 4} {
		c, sz, r := pass2(w, false)
		if sz.Plan.String() != fmt.Sprintf("packed/resident/%dw/pairs", w) {
			t.Fatalf("W=%d: plan %s", w, sz.Plan)
		}
		if !slices.EqualFunc(c, wantC, func(a, b ItemsetCount) bool { return a.Count == b.Count && slices.Equal(a.Items, b.Items) }) {
			t.Errorf("W=%d: C_2 differs from the materialized pass", w)
		}
		if sz.RPrimeRows != wantSz.RPrimeRows || sz.RRows != wantSz.RRows || !slices.Equal(r, wantR) {
			t.Errorf("W=%d: |R'_2| %d, |R_2| %d; materialized %d, %d (rows equal: %v)", w, sz.RPrimeRows, sz.RRows, wantSz.RPrimeRows, wantSz.RRows, slices.Equal(r, wantR))
		}
	}
}

// spilledPairsDataset is short baskets (at most three items) over six
// codes, 30,000 transactions: SALES spans several cancelCheckRows ranges,
// and a range emits about as many R_2 rows as it holds, which outgrow a
// 64 KiB budget's appender share.
func spilledPairsDataset() *Dataset { return signedDataset(9, 30000, 3, 6) }

// spilledPairsRun mines spilledPairsDataset with MineAuto's executor at a
// budget that spills passes 1 to 3 and whose key counter admits pass 2's
// table, over store, and records the pool's page reads and writes when
// each pass ends.
func spilledPairsRun(ctx context.Context, store storage.Store) (res *Result, pool *storage.Pool, reads, writes []int64, err error) {
	d := spilledPairsDataset()
	opts := Options{MinSupportFrac: 0.05, MemoryBudget: 64 << 10}
	pool = storage.NewPool(store, 8)
	st := newExecStepper(d, opts, PagedConfig{PoolFrames: 8, Store: store})
	st.ctx = ctx
	st.attachPool(pool)
	res, err = runPipeline(ctx, d, opts, st, func(IterationStat) {
		reads, writes = append(reads, pool.Stats.Reads), append(writes, pool.Stats.Writes)
	}, nil)
	return res, pool, reads, writes, err
}

// spilledPairsPass runs spilledPairsDataset fault-free and returns the
// pool's page writes at the start and the end of its pass 2, a spilled
// pairs pass that reads SALES in place and writes R_2 as a run, and its
// page reads at the start and the end of pass 3, which reads that run.
func spilledPairsPass(t *testing.T) (pass2Writes, pass3Reads [2]int64) {
	t.Helper()
	res, _, r, w, err := spilledPairsRun(context.Background(), storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) < 3 {
		t.Fatalf("setup: %d passes, want a pass 3 reading R_2", len(res.Stats))
	}
	for _, st := range res.Stats[:3] {
		if p := st.Plan; p.String() != "packed/spilled/1w/"+p.Count {
			t.Fatalf("setup: k=%d ran %s, want packed/spilled/1w/*", st.K, p)
		}
	}
	if st := res.Stats[1]; st.Plan.String() != "packed/spilled/1w/pairs" || r[1] != r[0] || w[1] == w[0] || r[2] == r[1] {
		t.Fatalf("setup: k=2 ran %s with %d reads and %d writes, k=3 %d reads; want a spilled pairs pass that writes pages and reads none, then a pass that reads them",
			st.Plan, r[1]-r[0], w[1]-w[0], r[2]-r[1])
	}
	return [2]int64{w[0], w[1]}, [2]int64{r[1], r[2]}
}

// checkFailedInPass asserts what a mine stopped inside pass k leaves: the
// wanted error, k-1 completed passes, zero pinned frames, and every page
// of the store on the pool's free list.
func checkFailedInPass(t *testing.T, label string, k int, pool *storage.Pool, passes int, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Errorf("%s: error %v, want %v", label, err, want)
	}
	if passes != k-1 {
		t.Errorf("%s: %d passes completed, want the failure inside pass %d", label, passes, k)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%s: %d pinned frames", label, n)
	}
	if all := pool.Store().NumPages(); freePages(t, pool) != all {
		t.Errorf("%s: not all %d pages free", label, all)
	}
}

// faultInsidePairsPass is TestSpillPipelineSurfacesFaults' pairs-pass
// case: a write fault at the middle of R_2's appender in the spilled
// pairs pass, and a read fault at the middle of pass 3's reads of R_2's
// run.
func faultInsidePairsPass(t *testing.T) {
	writes, reads := spilledPairsPass(t)
	for _, kind := range []struct {
		name string
		k    int
		at   int64
		set  func(*storage.FaultStore, int)
	}{
		{"write", 2, (writes[0] + writes[1]) / 2, func(fs *storage.FaultStore, n int) { fs.FailWriteAfter = n }},
		{"read", 3, (reads[0] + reads[1]) / 2, func(fs *storage.FaultStore, n int) { fs.FailReadAfter = n }},
	} {
		fs := storage.NewFaultStore(storage.NewMemStore())
		kind.set(fs, int(kind.at))
		_, pool, done, _, err := spilledPairsRun(context.Background(), fs)
		kind.set(fs, -1) // the free-list probe writes
		checkFailedInPass(t, kind.name+" fault", kind.k, pool, len(done), err, storage.ErrInjected)
	}
}

// TestCancelledPairsPassReturnsPromptly cancels the context at the
// middle of the spilled pairs pass's R_2 page writes: the mine stops
// within a range of cancelCheckRows SALES rows — the R_2 rows it emits —
// and the run extent the aborted appender flushes, and leaves zero pinned
// frames and every page free.
func TestCancelledPairsPassReturnsPromptly(t *testing.T) {
	writes, _ := spilledPairsPass(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelOnWrite{Store: storage.NewMemStore(), writesLeft: int((writes[0] + writes[1]) / 2), cancel: cancel}
	_, pool, done, _, err := spilledPairsRun(ctx, cs)
	after := cs.writes - cs.writesAtCancel // before the free-list probe writes
	checkFailedInPass(t, "cancel", 2, pool, len(done), err, context.Canceled)
	if after > cancelCheckRows/rowsPerPage+1+pool.RunExtent() {
		t.Errorf("%d pages written after the cancel", after)
	}
}

// cancelOnWrite cancels its context once writesLeft pages have been
// written, and counts the pages written after that.
type cancelOnWrite struct {
	storage.Store
	writesLeft, writes, writesAtCancel int
	cancel                             context.CancelFunc
}

func (c *cancelOnWrite) WritePages(id storage.PageID, src []byte) error {
	c.writes += len(src) / storage.PageSize
	if c.writesAtCancel == 0 && c.writes >= c.writesLeft {
		c.writesAtCancel = c.writes
		c.cancel()
	}
	return c.Store.WritePages(id, src)
}
