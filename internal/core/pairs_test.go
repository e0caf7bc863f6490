package core

import (
	"context"
	"errors"
	"fmt"
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
// (a spilled plan under a 16 KiB budget) must equal MinePaged's
// materialized k=2 — counts, every pass's |R'_k| and |R_k|, and the
// retained border.
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
		rPrime := packedExtend(sales, sales, bits, nil, nil)
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
			want := packedCountRuns(keys, ms, pkCounts{})
			idx := buildKeyIndex(want.keys, dict.bitSpace(2), ar)
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
						pairsCount(sales, lo[i], lo[i+1], bits, tabs[i])
					}
					if got := emitCountTable(sumTables(tabs), ms, pkCounts{}); !samePkCounts(got, want) {
						t.Fatalf("W=%d cuts %v minSup=%d: C_2 %v:%v, materialized %v:%v", W, lo, ms, got.keys, got.counts, want.keys, want.counts)
					}
				}
				var got []prow
				for i := 0; i < W; i++ {
					got = pairsEmit(sales, lo[i], lo[i+1], bits, &idx, got)
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
		spilled.MemoryBudget = 16 << 10
		st := newExecStepper(d, spilled, PagedConfig{}.withDefaults(), fixedStrategy(1, true))
		streamed, err := runPipeline(d, spilled, st)
		if err != nil {
			t.Fatal(err)
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

// pairsFixture is long baskets over 40 items (6-bit codes), 24,000 SALES
// rows: enough to fan out at four workers, with every cut inside a
// basket.
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
// at W = 2 and 4 against the materialized pass 2 of the same executor:
// the same C_2, |R'_2| and R_2, row for row. CI runs it under -race
// -count=10.
func TestPairsParallelTables(t *testing.T) {
	d := pairsFixture()
	const minSup = 60
	pass2 := func(workers int, materialize bool) ([]ItemsetCount, iterSizes, []prow) {
		s := newExecStepper(d, Options{MinSupportCount: minSup}, PagedConfig{}.withDefaults(), fixedStrategy(workers, false))
		s.materializeR2 = materialize
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
		if sz.plan.String() != fmt.Sprintf("packed/resident/%dw/pairs", w) {
			t.Fatalf("W=%d: plan %s", w, sz.plan)
		}
		if !slices.EqualFunc(c, wantC, func(a, b ItemsetCount) bool { return a.Count == b.Count && slices.Equal(a.Items, b.Items) }) {
			t.Errorf("W=%d: C_2 differs from the materialized pass", w)
		}
		if sz.rPrime != wantSz.rPrime || sz.rRows != wantSz.rRows || !slices.Equal(r, wantR) {
			t.Errorf("W=%d: |R'_2| %d, |R_2| %d; materialized %d, %d (rows equal: %v)", w, sz.rPrime, sz.rRows, wantSz.rPrime, wantSz.rRows, slices.Equal(r, wantR))
		}
	}
}

// spilledPairsRun mines the fixture under the spilled fixed plan at a
// budget whose key counter admits pass 2's table, over store, and
// records the pool's page reads and writes when each pass ends.
func spilledPairsRun(ctx context.Context, store storage.Store) (res *Result, pool *storage.Pool, reads, writes []int64, err error) {
	d := faultDataset()
	opts := Options{MinSupportFrac: 0.05, MemoryBudget: 64 << 10}
	pool = storage.NewPool(store, 8)
	st := newExecStepper(d, opts, PagedConfig{PoolFrames: 8, Store: store}, fixedStrategy(1, true))
	st.ctx = ctx
	st.attachPool(pool)
	res, err = runPipelineCtx(ctx, d, opts, st, func(IterationStat) {
		reads, writes = append(reads, pool.Stats.Reads), append(writes, pool.Stats.Writes)
	})
	return res, pool, reads, writes, err
}

// freePages counts the pool's free list: pages taken before the store
// grows. Equal to the store's size, every page is free.
func freePages(t *testing.T, pool *storage.Pool) int {
	t.Helper()
	pages := pool.Store().NumPages()
	page := make([]byte, storage.PageSize)
	for n := 0; ; n++ {
		if _, err := pool.AppendPages(nil, page); err != nil {
			t.Fatal(err)
		}
		if pool.Store().NumPages() > pages {
			return n
		}
	}
}

// spilledPairsPass runs the fixture fault-free and returns the pool's
// page reads and writes at the start and the end of its pass 2, which
// must be a spilled pairs pass that reads and writes pages.
func spilledPairsPass(t *testing.T) (reads, writes [2]int64) {
	t.Helper()
	res, _, r, w, err := spilledPairsRun(context.Background(), storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats[1]; st.Plan.String() != "packed/spilled/1w/pairs" || r[1] == r[0] || w[1] == w[0] {
		t.Fatalf("setup: k=2 ran %s with %d reads and %d writes; want a spilled pairs pass that reads and writes pages",
			st.Plan, r[1]-r[0], w[1]-w[0])
	}
	return [2]int64{r[0], r[1]}, [2]int64{w[0], w[1]}
}

// checkFailedInPass2 asserts what a mine stopped inside pass 2 leaves:
// the wanted error, one completed pass, zero pinned frames, and every
// page of the store on the pool's free list.
func checkFailedInPass2(t *testing.T, label string, pool *storage.Pool, passes int, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Errorf("%s: error %v, want %v", label, err, want)
	}
	if passes != 1 {
		t.Errorf("%s: %d passes completed, want the failure inside pass 2", label, passes)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%s: %d pinned frames", label, n)
	}
	if all := pool.Store().NumPages(); freePages(t, pool) != all {
		t.Errorf("%s: not all %d pages free", label, all)
	}
}

// faultInsidePairsPass is TestSpillPipelineSurfacesFaults' pairs-pass
// case: a read fault and a write fault at the middle of the streaming
// pairs pass's page I/O.
func faultInsidePairsPass(t *testing.T) {
	reads, writes := spilledPairsPass(t)
	for _, kind := range []struct {
		name string
		at   int64
		set  func(*storage.FaultStore, int)
	}{
		{"read", (reads[0] + reads[1]) / 2, func(fs *storage.FaultStore, n int) { fs.FailReadAfter = n }},
		{"write", (writes[0] + writes[1]) / 2, func(fs *storage.FaultStore, n int) { fs.FailWriteAfter = n }},
	} {
		fs := storage.NewFaultStore(storage.NewMemStore())
		kind.set(fs, int(kind.at))
		_, pool, done, _, err := spilledPairsRun(context.Background(), fs)
		kind.set(fs, -1) // the free-list probe writes
		checkFailedInPass2(t, kind.name+" fault", pool, len(done), err, storage.ErrInjected)
	}
}

// TestCancelledPairsPassReturnsPromptly cancels the context at the
// middle of the streaming pairs pass's page reads: the mine stops within
// a block of rows and a run extent or two, and leaves zero pinned frames
// and every page free.
func TestCancelledPairsPassReturnsPromptly(t *testing.T) {
	reads, _ := spilledPairsPass(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelOnRead{Store: storage.NewMemStore(), readsLeft: int((reads[0] + reads[1]) / 2), cancel: cancel}
	_, pool, done, _, err := spilledPairsRun(ctx, cs)
	checkFailedInPass2(t, "cancel", pool, len(done), err, context.Canceled)
	if after := cs.reads - cs.readsAtCancel; after > cancelCheckRows/rowsPerPage+2*storage.RunExtentPages {
		t.Errorf("%d pages read after the cancel", after)
	}
}

// cancelOnRead cancels its context once readsLeft pages have been read,
// and counts the pages read after that.
type cancelOnRead struct {
	storage.Store
	readsLeft, reads, readsAtCancel int
	cancel                          context.CancelFunc
}

func (c *cancelOnRead) ReadPages(id storage.PageID, dst []byte) error {
	c.reads += len(dst) / storage.PageSize
	if c.readsAtCancel == 0 && c.reads >= c.readsLeft {
		c.readsAtCancel = c.reads
		c.cancel()
	}
	return c.Store.ReadPages(id, dst)
}
