package core

// The spillable-relation substrate of the adaptive executor
// (executor.go): the packed-key kernels of pack.go running over
// relations that keep their (tid, key) rows in RAM while they fit the
// memory budget and become sequential runs of raw packed pages
// (storage.Run) once they do not. Every kernel of the iteration loop —
// extension, key sort + count, support filter — streams through cursors
// that read either form, so one code path serves the in-RAM and the
// disk-resident regimes and the switch is just where an appender's
// buffer tips over the budget. R_1 is the exception: the data
// set's packed SALES, resident whatever the budget and read in place; only
// MinePaged writes it as a run, as Section 4.3 charges (n-1)·‖R_1‖ for it.
//
// A relation is resident rows or one spilled run, never a mix: a budgeted
// pass runs one cursor per input, one appender per output and one key
// counter, so nothing ever produces a second piece. It is serial because
// its cost is sequential page access, which concurrent cursors on one
// store break up (measured at 0.34–0.37× the serial pass at two workers;
// costmodel.ChoosePlan's rule gives a spilled pass one worker); resident
// passes fan out through the chunk kernels of arena.go instead.
//
// The paper's structure survives intact: extension output inherits
// (trans_id, items) order, so R'_k spills with no sort; only the count
// step's key column needs sorting, which becomes bounded in-memory radix
// runs plus a cascaded k-way merge (xsort's packed path) — exactly the
// "two sorts and a merge-scan join" loop of Section 4.4, with the
// sortedness fast path deleting the first sort and, when the packed key
// space is narrow enough for a counting table to fit the key counter's
// budget share, the second one too (no key runs, no merge).

import (
	"context"
	"io"
	"slices"

	"setm/internal/storage"
	"setm/internal/xsort"
)

// rowsPerPage is the number of (tid, key) rows one packed page holds.
const rowsPerPage = storage.WordsPerPage / 2

// spillStats tallies the spill activity of a mining run.
type spillStats struct {
	runs  int64 // sorted packed-page runs written
	bytes int64 // payload bytes written into those runs
}

func (s *spillStats) addRun(run storage.Run) {
	s.runs++
	s.bytes += run.Bytes()
}

// srel is a spillable packed relation in (tid, key) order: resident rows
// or one spilled run.
type srel struct {
	mem     []prow
	run     storage.Run
	spilled bool
}

// memSrel wraps resident rows as a relation.
func memSrel(rows []prow) *srel { return &srel{mem: rows} }

// runSrel wraps a spilled run as a relation.
func runSrel(run storage.Run) *srel { return &srel{run: run, spilled: true} }

func (r *srel) rows() int64 {
	if r.spilled {
		return r.run.Rows()
	}
	return int64(len(r.mem))
}

// resident reports whether the rows are in RAM (then r.mem is all of them).
func (r *srel) resident() bool { return !r.spilled }

// free returns a spilled relation's pages to the pool and drops the rows.
func (r *srel) free(pool *storage.Pool) {
	if r.spilled {
		r.run.Free(pool)
		r.spilled = false
	}
	r.mem = nil
}

// ---------------------------------------------------------------------------
// Row iteration

// rowIter streams a relation's packed rows front to back, a slice at a
// time: next returns nil at the end, and a slice is valid until the
// following call. rowsOf yields blocks of at most cancelCheckRows rows, so
// a consumer that polls its context once a block stays prompt and its
// per-block scratch stays small; groupsOf yields one transaction group a
// call.
type rowIter interface {
	next() ([]prow, error)
	close()
}

type memRowIter struct{ rows []prow }

func (it *memRowIter) next() ([]prow, error) {
	if len(it.rows) == 0 {
		return nil, nil
	}
	n := min(len(it.rows), cancelCheckRows)
	blk := it.rows[:n]
	it.rows = it.rows[n:]
	return blk, nil
}

func (it *memRowIter) close() {}

// runRowIter decodes a run's rows one reader block (an extent) at a time.
type runRowIter struct {
	rd  *storage.RunReader
	buf []prow
}

func (it *runRowIter) next() ([]prow, error) {
	blk, err := it.rd.Block()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(blk)%2 != 0 {
		return nil, io.ErrUnexpectedEOF
	}
	it.buf = slices.Grow(it.buf[:0], len(blk)/2)[:len(blk)/2]
	for i := range it.buf {
		it.buf[i] = prow{Tid: blk[2*i], Key: blk[2*i+1]}
	}
	return it.buf, nil
}

func (it *runRowIter) close() { it.rd.Close() }

// rowsOf opens a row iterator over the relation.
func rowsOf(pool *storage.Pool, r *srel) rowIter {
	if r.spilled {
		return &runRowIter{rd: storage.NewRunReader(pool, r.run)}
	}
	return &memRowIter{rows: r.mem}
}

// ---------------------------------------------------------------------------
// Group iteration (the unit MinePaged's merge-scan extension joins on)

// memGroups windows a resident slice without copying.
type memGroups struct {
	rows []prow
	pos  int
}

func (g *memGroups) next() ([]prow, error) {
	if g.pos >= len(g.rows) {
		return nil, nil
	}
	start := g.pos
	tid := g.rows[start].Tid
	for g.pos < len(g.rows) && g.rows[g.pos].Tid == tid {
		g.pos++
	}
	return g.rows[start:g.pos], nil
}

func (g *memGroups) close() {}

// runGroups buffers one transaction group at a time from a run reader,
// front to back.
type runGroups struct {
	rd  *storage.RunReader
	blk []uint64 // current decoded block (block-wise reads)
	bi  int
	buf []prow

	pending    prow // first row of the next group, read past the last one
	hasPending bool
	done       bool
}

func newRunGroups(pool *storage.Pool, run storage.Run) *runGroups {
	return &runGroups{rd: storage.NewRunReader(pool, run)}
}

func (g *runGroups) nextRow() (prow, bool, error) {
	if g.bi+2 > len(g.blk) {
		blk, err := g.rd.Block()
		if err == io.EOF {
			return prow{}, false, nil
		}
		if err != nil {
			return prow{}, false, err
		}
		if len(blk) < 2 {
			return prow{}, false, io.ErrUnexpectedEOF
		}
		g.blk, g.bi = blk, 0
	}
	r := prow{Tid: g.blk[g.bi], Key: g.blk[g.bi+1]}
	g.bi += 2
	return r, true, nil
}

func (g *runGroups) next() ([]prow, error) {
	if g.done {
		return nil, nil
	}
	first := g.pending
	if !g.hasPending {
		var ok bool
		var err error
		if first, ok, err = g.nextRow(); err != nil {
			return nil, err
		}
		if !ok {
			g.done = true
			return nil, nil
		}
	}
	g.buf = append(g.buf[:0], first)
	g.hasPending = false
	for {
		r, ok, err := g.nextRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			g.done = true
			break
		}
		if r.Tid != g.buf[0].Tid {
			g.pending, g.hasPending = r, true
			break
		}
		g.buf = append(g.buf, r)
	}
	return g.buf, nil
}

func (g *runGroups) close() { g.rd.Close() }

// groupsOf opens a group iterator over the relation.
func groupsOf(pool *storage.Pool, r *srel) rowIter {
	if r.spilled {
		return newRunGroups(pool, r.run)
	}
	return &memGroups{rows: r.mem}
}

// ---------------------------------------------------------------------------
// Appending (resident until the budget says otherwise)

// spillAppender accumulates rows in RAM up to capRows and transparently
// switches to writing a packed run past it. The input order is the
// output order either way, so a relation appended in (tid, key) order
// spills as one sorted sequential run.
type spillAppender struct {
	pool    *storage.Pool
	capRows int     // 0 = unbounded (never spill)
	slot    *[]prow // the arena buffer mem grows in, handed back by finish and abort
	mem     []prow
	w       *storage.RunWriter // stages an extent itself once spilled
	st      *spillStats
	closed  bool
}

// newSpillAppender opens an appender bounded to capRows (0: unbounded)
// whose resident rows grow in the arena buffer *slot.
func newSpillAppender(pool *storage.Pool, capRows int, st *spillStats, slot *[]prow) *spillAppender {
	return &spillAppender{pool: pool, capRows: capRows, st: st, slot: slot, mem: (*slot)[:0]}
}

func (a *spillAppender) add(rows []prow) error {
	if a.w == nil {
		if a.capRows <= 0 || len(a.mem)+len(rows) <= a.capRows {
			if a.capRows > 0 && cap(a.mem) < a.capRows {
				// Sized once, at the bound, as stepResident sizes R'_k: grown
				// by append, the buffer would leave its abandoned copies to the
				// collector on every mine whose arena lacks it.
				a.mem = append(make([]prow, 0, a.capRows), a.mem...)
			}
			a.mem = append(a.mem, rows...)
			return nil
		}
		a.w = storage.NewRunWriter(a.pool)
		if err := a.w.Rows(a.mem); err != nil {
			return err
		}
		a.mem = a.mem[:0] // the writer copied the rows; the buffer goes back to the arena
	}
	return a.w.Rows(rows)
}

// finish seals the appender into a relation: the resident rows (which
// stay in the arena buffer), or the one run everything went to.
func (a *spillAppender) finish() (*srel, error) {
	a.closed = true
	*a.slot = a.mem
	if a.w == nil {
		return memSrel(a.mem), nil
	}
	run, err := a.w.Close()
	if err != nil {
		return nil, err
	}
	a.st.addRun(run)
	return runSrel(run), nil
}

// abort releases the appender's writer (freeing any partial run) after
// an error; harmless after finish.
func (a *spillAppender) abort(pool *storage.Pool) {
	if a.closed {
		return
	}
	a.closed = true
	*a.slot = a.mem
	if a.w == nil {
		return
	}
	if run, err := a.w.Close(); err == nil {
		run.Free(pool)
	}
}

// ---------------------------------------------------------------------------
// Counting (the paper's "sort R'_k on items; count" step, out of core)

// keyCounter implements the count step over a streamed key column. On the
// sort kernel, keys accumulate in a bounded buffer that is radix-sorted
// and spilled as a sorted key run when full; finish merges the runs k-way
// (cascaded to the budget's fan-in) while run-length counting the sorted
// stream into a packed C_k, and below the budget no run is ever written.
// On the table kernel (pack.go) keys increment a direct-address table
// instead: nothing is buffered, sorted, or spilled.
// The switch is the kernel rule applied to what the counter observes —
// the table must not exceed the sort buffers it replaces: the bounded
// key and scratch buffers (2*8*capKeys) under a budget, so it is taken
// from the first key on; 16 bytes per key seen so far when unbounded, so
// the counter buffers until the table pays and then drains into it.
type keyCounter struct {
	ctx     context.Context // nil = never cancelled; polled during the merge
	pool    *storage.Pool
	capKeys int // 0 = unbounded
	fanIn   int // merge fan-in (bounded by the budget's run buffers)
	keys    []uint64
	tmp     []uint64
	runs    []storage.Run
	st      *spillStats
	skips   int64

	tabCells int      // count table size for this pass; 0 = sort kernel only
	tabAt    int      // buffered keys at which the table replaces the buffers
	tab      []uint32 // the live table once counting direct-address
	tabBuf   []uint32 // arena-owned backing store for tab
}

// newKeyCounter builds a counter bounded to capKeys (0: unbounded) for a
// pass whose key space admits a count table of tabCells cells (0: none).
func newKeyCounter(ctx context.Context, pool *storage.Pool, capKeys, fanIn, tabCells int, st *spillStats) *keyCounter {
	kc := &keyCounter{ctx: ctx, pool: pool, capKeys: capKeys, fanIn: fanIn, st: st}
	switch {
	case capKeys <= 0:
		kc.tabCells, kc.tabAt = tabCells, (tabCells+3)/4 // 4 B/cell <= 16 B/key
	case countTableFits(tabCells, capKeys):
		kc.tabCells = tabCells
	}
	return kc
}

// addRows feeds a batch of rows' keys — the fused count step of the
// extension loop.
func (kc *keyCounter) addRows(rows []prow) error {
	for len(rows) > 0 && kc.tab == nil {
		// Buffer up to the next event: the table switch, or a full run
		// (an unbounded sort-kernel counter has neither).
		limit := len(kc.keys) + len(rows) + 1
		if kc.tabCells > 0 {
			limit = kc.tabAt
		} else if kc.capKeys > 0 {
			limit = kc.capKeys
		}
		n := min(len(rows), limit-len(kc.keys))
		for _, r := range rows[:n] {
			kc.keys = append(kc.keys, r.Key)
		}
		rows = rows[n:]
		if len(kc.keys) < limit {
			return nil
		}
		if kc.tabCells > 0 {
			kc.startTable()
		} else if err := kc.flushRun(); err != nil {
			return err
		}
	}
	for _, r := range rows {
		kc.tab[r.Key]++
	}
	return nil
}

// startTable switches the counter to the table kernel, draining the
// keys buffered so far.
func (kc *keyCounter) startTable() {
	kc.tab = growU32(kc.tabBuf, kc.tabCells)
	kc.tabBuf = kc.tab
	clear(kc.tab)
	for _, k := range kc.keys {
		kc.tab[k]++
	}
	kc.keys = kc.keys[:0]
}

func (kc *keyCounter) flushRun() error {
	if len(kc.keys) == 0 {
		return nil
	}
	kc.sortBuf()
	run, err := xsort.SpillKeys(kc.pool, kc.keys)
	if err != nil {
		return err
	}
	kc.st.addRun(run)
	kc.runs = append(kc.runs, run)
	kc.keys = kc.keys[:0]
	return nil
}

func (kc *keyCounter) sortBuf() {
	if xsort.KeysSorted(kc.keys) {
		kc.skips++
		return
	}
	kc.tmp = growU64(kc.tmp, len(kc.keys))
	xsort.RadixSortU64(kc.keys, kc.tmp)
}

// finish produces the packed C_k at minSup, appending to dst's buffers,
// and reports the kernel that counted it: the table's read-out (tallied
// as one skipped sort), or the sort kernel — in RAM while no run was
// written, else the remainder flushed as a last (short) run and one
// cascaded merge over the whole key column. The runs are consumed or
// freed on every path.
func (kc *keyCounter) finish(minSup int64, dst pkCounts) (pkCounts, string, error) {
	if kc.tab != nil {
		kc.skips++
		return xsort.EmitCountTable(kc.tab, minSup, dst), CountTable, nil
	}
	if len(kc.runs) == 0 {
		return xsort.SortCountKeys(kc.keys, &kc.tmp, minSup, dst, &kc.skips), CountSort, nil
	}
	if err := kc.flushRun(); err != nil {
		kc.abort()
		return dst, CountSort, err
	}
	runs := kc.runs
	kc.runs = nil
	ck, err := countMergedRuns(kc.ctx, kc.pool, runs, kc.fanIn, minSup, dst)
	return ck, CountSort, err
}

// abort frees any runs not yet consumed by finish.
func (kc *keyCounter) abort() {
	for i := range kc.runs {
		kc.runs[i].Free(kc.pool)
	}
	kc.runs = nil
}

// countMergedRuns streams the cascaded k-way merge of sorted key runs
// and run-length counts the merged stream into dst at minSup. The runs
// are consumed. ctx (nil for never) is polled every cancelCheckRows
// merged keys; on cancellation the merge's own error path frees the runs,
// so the counter unwinds leak-free.
func countMergedRuns(ctx context.Context, pool *storage.Pool, runs []storage.Run, fanIn int, minSup int64, dst pkCounts) (pkCounts, error) {
	var cur uint64
	var n int64
	var sinceCheck int
	flush := func() {
		if n >= minSup {
			dst.Keys = append(dst.Keys, cur)
			dst.Counts = append(dst.Counts, n)
		}
	}
	err := xsort.MergeKeys(pool, runs, fanIn, func(k uint64) error {
		if ctx != nil {
			if sinceCheck++; sinceCheck >= cancelCheckRows {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		if n > 0 && k == cur {
			n++
			return nil
		}
		flush()
		cur, n = k, 1
		return nil
	})
	if err != nil {
		return dst, err
	}
	flush()
	return dst, nil
}

// mergeFanIn caps a merge's open-run count by the memory budget: each
// open reader holds one extent of the pool's runs (Pool.RunExtent pages)
// in its own buffer, so the budget share bounds how many may be open at
// once. Frames no longer enter into it; xsort.FanIn only keeps an
// unbudgeted merge's buffers finite.
func mergeFanIn(pool *storage.Pool, chunk int64) int {
	fanIn := xsort.FanIn(pool.Capacity())
	if chunk > 0 {
		fanIn = min(fanIn, int(chunk/runBufferBytes(pool)))
	}
	return max(fanIn, 2)
}

// runBufferBytes is the heap one open run reader or writer of pool holds.
func runBufferBytes(pool *storage.Pool) int64 {
	return int64(pool.RunExtent()) * storage.PageSize
}
