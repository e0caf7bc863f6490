package core

// The spillable-relation substrate of the adaptive executor
// (executor.go): the packed-key kernels of pack.go running over
// relations that keep their (tid, key) rows in RAM while they fit the
// memory budget and become sequential runs of raw packed pages
// (storage.Run) once they do not. Every kernel of the iteration loop —
// merge-scan extension, key sort + count, support filter — streams
// through cursors that read either form, so one code path serves the
// in-RAM and the disk-resident regimes and the switch is just where an
// appender's buffer tips over the budget.
//
// A relation is an ordered list of *segments*, each resident or spilled,
// with segment boundaries always on transaction boundaries. One segment
// is the serial case; several are what the parallel spilled regime
// produces — worker-private appenders and run sets, concatenated in tid
// order. The morsel splitters at the bottom of this file carve a
// relation back into tid-aligned group sources (for the extension join)
// or exact row ranges (for the filter), so spilled iterations fan out
// across workers the same way the resident kernels of arena.go do.
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

	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/xsort"
)

// rowsPerPage is the number of (tid, key) rows one packed page holds.
const rowsPerPage = storage.WordsPerPage / 2

// spillStats tallies the spill activity of a mining run (or of one
// worker, merged after the fan-in).
type spillStats struct {
	runs  int64 // sorted packed-page runs written
	bytes int64 // payload bytes written into those runs
}

func (s *spillStats) addRun(run storage.Run) {
	s.runs++
	s.bytes += run.Bytes()
}

func (s *spillStats) merge(o spillStats) {
	s.runs += o.runs
	s.bytes += o.bytes
}

// sseg is one segment of a spillable relation: resident rows or one
// spilled run. Segment boundaries always coincide with transaction
// boundaries, so no group spans segments.
type sseg struct {
	mem     []prow
	run     storage.Run
	spilled bool
}

func (g *sseg) rows() int64 {
	if g.spilled {
		return g.run.Rows()
	}
	return int64(len(g.mem))
}

// srel is a spillable packed relation in (tid, key) order.
type srel struct {
	segs  []sseg
	nrows int64
}

// memSrel wraps resident rows as a single-segment relation.
func memSrel(rows []prow) *srel {
	return &srel{segs: []sseg{{mem: rows}}, nrows: int64(len(rows))}
}

// runSrel wraps a spilled run as a single-segment relation.
func runSrel(run storage.Run) *srel {
	return &srel{segs: []sseg{{run: run, spilled: true}}, nrows: run.Rows()}
}

func (r *srel) rows() int64 { return r.nrows }

// resident reports whether every segment is in RAM.
func (r *srel) resident() bool {
	for i := range r.segs {
		if r.segs[i].spilled {
			return false
		}
	}
	return true
}

// flatten returns the relation's rows as one contiguous resident slice.
// A single-segment resident relation is returned as-is; multi-segment
// ones (the product of a parallel iteration whose appenders never
// spilled) are concatenated once, at the resident fast path's entry.
// Panics if any segment is spilled — callers check resident() first.
func (r *srel) flatten() []prow {
	if len(r.segs) == 1 && !r.segs[0].spilled {
		return r.segs[0].mem
	}
	out := make([]prow, 0, r.nrows)
	for i := range r.segs {
		if r.segs[i].spilled {
			panic("core: flatten of a spilled relation")
		}
		out = append(out, r.segs[i].mem...)
	}
	return out
}

// pages is the relation's page footprint ‖R‖: the runs' real pages for
// spilled segments, the packed-page equivalent of the resident rows
// otherwise (so the Section 4.3 arithmetic stays meaningful across both
// regimes).
func (r *srel) pages() int {
	p := 0
	for i := range r.segs {
		if r.segs[i].spilled {
			p += r.segs[i].run.Pages()
		} else {
			p += int(costmodel.PackedPages(int64(len(r.segs[i].mem)), costmodel.PackedRowBytes))
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// free returns every spilled segment's pages to the pool.
func (r *srel) free(pool *storage.Pool) {
	for i := range r.segs {
		if r.segs[i].spilled {
			r.segs[i].run.Free(pool)
			r.segs[i].spilled = false
		}
		r.segs[i].mem = nil
	}
	r.segs = nil
	r.nrows = 0
}

// ---------------------------------------------------------------------------
// Row iteration

// rowIter streams packed rows front to back, a block at a time: next
// returns nil at the end, and a block is valid until the following call.
// Blocks hold at most cancelCheckRows rows, so a consumer that polls its
// context once a block stays prompt and its per-block scratch stays small.
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

// segRowIter chains the rows of consecutive segments.
type segRowIter struct {
	pool *storage.Pool
	segs []sseg
	cur  rowIter
}

func (it *segRowIter) next() ([]prow, error) {
	for {
		if it.cur == nil {
			if len(it.segs) == 0 {
				return nil, nil
			}
			s := it.segs[0]
			it.segs = it.segs[1:]
			if s.spilled {
				it.cur = &runRowIter{rd: storage.NewRunReader(it.pool, s.run)}
			} else {
				it.cur = &memRowIter{rows: s.mem}
			}
		}
		blk, err := it.cur.next()
		if err != nil || blk != nil {
			return blk, err
		}
		it.cur.close()
		it.cur = nil
	}
}

func (it *segRowIter) close() {
	if it.cur != nil {
		it.cur.close()
		it.cur = nil
	}
	it.segs = nil
}

// rowsOf opens a row iterator over the whole relation.
func rowsOf(pool *storage.Pool, r *srel) rowIter {
	return &segRowIter{pool: pool, segs: r.segs}
}

// ---------------------------------------------------------------------------
// Group iteration (the unit the merge-scan extension joins on)

// groupIter yields a relation's rows one transaction group at a time;
// next returns nil at the end.
type groupIter interface {
	next() ([]prow, error)
	close()
}

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

// runGroups buffers one transaction group at a time from a run reader.
// It implements the morsel boundary rules of the parallel spilled
// regime: leading rows carrying skipTid belong to the previous morsel's
// trailing group and are skipped; a group whose first row sits at
// absolute index >= stopRow belongs to the next morsel, so iteration
// ends there (the reader itself extends to the end of the run, since the
// morsel's own trailing group may continue past its page boundary).
type runGroups struct {
	rd  *storage.RunReader
	blk []uint64 // current decoded block (block-wise reads)
	bi  int
	buf []prow

	pending    prow
	hasPending bool
	done       bool

	haveSkip bool
	skipTid  uint64
	stopRow  int64 // -1: none
	pos      int64 // absolute row index of the next unread row
}

func newRunGroups(pool *storage.Pool, run storage.Run) *runGroups {
	return &runGroups{rd: storage.NewRunReader(pool, run), stopRow: -1}
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
	g.pos++
	return r, true, nil
}

func (g *runGroups) next() ([]prow, error) {
	if g.done {
		return nil, nil
	}
	if !g.hasPending {
		for {
			r, ok, err := g.nextRow()
			if err != nil {
				return nil, err
			}
			if !ok {
				g.done = true
				return nil, nil
			}
			if g.haveSkip && r.Tid == g.skipTid {
				continue // previous morsel's trailing group
			}
			g.haveSkip = false
			g.pending, g.hasPending = r, true
			break
		}
	}
	// pending is the first row of the next group, at absolute index pos-1.
	if g.stopRow >= 0 && g.pos-1 >= g.stopRow {
		g.done = true
		return nil, nil
	}
	g.buf = append(g.buf[:0], g.pending)
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

// segGroups chains group iteration across segments; since segment
// boundaries are transaction boundaries, no group spans two segments.
type segGroups struct {
	pool *storage.Pool
	segs []sseg
	cur  groupIter
}

func (g *segGroups) next() ([]prow, error) {
	for {
		if g.cur == nil {
			if len(g.segs) == 0 {
				return nil, nil
			}
			s := g.segs[0]
			g.segs = g.segs[1:]
			if s.spilled {
				g.cur = newRunGroups(g.pool, s.run)
			} else {
				g.cur = &memGroups{rows: s.mem}
			}
		}
		grp, err := g.cur.next()
		if err != nil {
			return nil, err
		}
		if grp != nil {
			return grp, nil
		}
		g.cur.close()
		g.cur = nil
	}
}

func (g *segGroups) close() {
	if g.cur != nil {
		g.cur.close()
		g.cur = nil
	}
	g.segs = nil
}

// groupsOf opens a group iterator over the whole relation.
func groupsOf(pool *storage.Pool, r *srel) groupIter {
	return &segGroups{pool: pool, segs: r.segs}
}

// seekGroups opens a group iterator positioned at the first group whose
// tid is >= fromTid — how a morsel worker fast-starts its join side. Run
// segments are probed with RowAt binary searches (a handful of single-page
// fetches through the pool's frames, the upper levels mostly hits).
func seekGroups(pool *storage.Pool, r *srel, fromTid uint64) (groupIter, error) {
	for si := range r.segs {
		s := &r.segs[si]
		n := s.rows()
		if n == 0 {
			continue
		}
		var lastTid uint64
		if s.spilled {
			last, err := s.run.RowAt(pool, n-1)
			if err != nil {
				return nil, err
			}
			lastTid = last.Tid
		} else {
			lastTid = s.mem[n-1].Tid
		}
		if lastTid < fromTid {
			continue // whole segment precedes the target
		}
		// Target position is inside this segment.
		if !s.spilled {
			lo, hi := 0, len(s.mem)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if s.mem[mid].Tid < fromTid {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			segs := append([]sseg{{mem: s.mem[lo:]}}, r.segs[si+1:]...)
			return &segGroups{pool: pool, segs: segs}, nil
		}
		lo, hi := int64(0), n
		for lo < hi {
			mid := (lo + hi) >> 1
			row, err := s.run.RowAt(pool, mid)
			if err != nil {
				return nil, err
			}
			if row.Tid < fromTid {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// Open the run at the page containing row lo and discard the rows
		// before it within that page.
		pageLo := int(lo / rowsPerPage)
		rg := &runGroups{rd: storage.NewRunReaderAt(pool, s.run, pageLo), stopRow: -1}
		rg.pos = int64(pageLo) * rowsPerPage
		for rg.pos < lo {
			if _, ok, err := rg.nextRow(); err != nil {
				rg.close()
				return nil, err
			} else if !ok {
				break
			}
		}
		return &segGroups{pool: pool, segs: r.segs[si+1:], cur: rg}, nil
	}
	return &segGroups{pool: pool}, nil // every group precedes fromTid
}

// ---------------------------------------------------------------------------
// Morsel splitting

// groupSrc describes one tid-aligned morsel of a relation; open
// instantiates its group iterator.
type groupSrc struct {
	pool *storage.Pool
	mem  []prow // resident morsel, or
	segs []sseg // bundle of whole segments, or
	// window of one run:
	run      storage.Run
	isRun    bool
	pageLo   int
	haveSkip bool
	skipTid  uint64
	stopRow  int64
}

func (gs *groupSrc) open() groupIter {
	switch {
	case gs.isRun:
		rg := &runGroups{
			rd:       storage.NewRunReaderAt(gs.pool, gs.run, gs.pageLo),
			haveSkip: gs.haveSkip, skipTid: gs.skipTid, stopRow: gs.stopRow,
		}
		rg.pos = int64(gs.pageLo) * rowsPerPage
		return rg
	case gs.segs != nil:
		return &segGroups{pool: gs.pool, segs: gs.segs}
	default:
		return &memGroups{rows: gs.mem}
	}
}

// splitGroups carves the relation into at most n tid-aligned morsels
// covering it in order. A single-segment relation splits within the
// segment (resident: at transaction boundaries; spilled: at page
// boundaries with carry-tid/stop-row rules); a multi-segment one splits
// at segment boundaries, which are tid-aligned by construction.
func splitGroups(pool *storage.Pool, r *srel, n int) ([]groupSrc, error) {
	if n < 1 {
		n = 1
	}
	if len(r.segs) == 1 {
		s := r.segs[0]
		if !s.spilled {
			bounds := chunkProwsByTid(s.mem, n)
			out := make([]groupSrc, 0, len(bounds))
			for _, b := range bounds {
				out = append(out, groupSrc{pool: pool, mem: s.mem[b[0]:b[1]]})
			}
			return out, nil
		}
		pages := s.run.Pages()
		if pages == 0 {
			return nil, nil
		}
		if n > pages {
			n = pages
		}
		out := make([]groupSrc, 0, n)
		for w := 0; w < n; w++ {
			pLo := w * pages / n
			pHi := (w + 1) * pages / n
			if pLo >= pHi {
				continue
			}
			gs := groupSrc{pool: pool, run: s.run, isRun: true, pageLo: pLo, stopRow: -1}
			if w > 0 {
				// The previous morsel finishes the group straddling the
				// boundary; skip its tid, read from the page's last full row.
				prev, err := s.run.RowAt(pool, int64(pLo)*rowsPerPage-1)
				if err != nil {
					return nil, err
				}
				gs.haveSkip, gs.skipTid = true, prev.Tid
			}
			if w < n-1 {
				gs.stopRow = int64(pHi) * rowsPerPage
			}
			out = append(out, gs)
		}
		return out, nil
	}
	// Multi-segment: bundle consecutive whole segments, balancing rows.
	target := (r.nrows + int64(n) - 1) / int64(n)
	if target < 1 {
		target = 1
	}
	var out []groupSrc
	var cur []sseg
	var curRows int64
	for _, s := range r.segs {
		cur = append(cur, s)
		curRows += s.rows()
		if curRows >= target && len(out) < n-1 {
			out = append(out, groupSrc{pool: pool, segs: cur})
			cur, curRows = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, groupSrc{pool: pool, segs: cur})
	}
	return out, nil
}

// splitRows partitions the relation into at most n exact row ranges (no
// tid alignment — the filter is per-row), covering it in order.
func splitRows(pool *storage.Pool, r *srel, n int) []groupSrcRows {
	if n < 1 {
		n = 1
	}
	if len(r.segs) == 1 {
		s := r.segs[0]
		if !s.spilled {
			bounds := evenChunks(len(s.mem), n)
			out := make([]groupSrcRows, 0, len(bounds))
			for _, b := range bounds {
				out = append(out, groupSrcRows{pool: pool, mem: s.mem[b[0]:b[1]]})
			}
			return out
		}
		pages := s.run.Pages()
		if n > pages {
			n = pages
		}
		out := make([]groupSrcRows, 0, n)
		for w := 0; w < n; w++ {
			pLo := w * pages / n
			pHi := (w + 1) * pages / n
			if pLo >= pHi {
				continue
			}
			out = append(out, groupSrcRows{pool: pool, run: s.run.PageView(pLo, pHi), isRun: true})
		}
		return out
	}
	target := (r.nrows + int64(n) - 1) / int64(n)
	if target < 1 {
		target = 1
	}
	var out []groupSrcRows
	var cur []sseg
	var curRows int64
	for _, s := range r.segs {
		cur = append(cur, s)
		curRows += s.rows()
		if curRows >= target && len(out) < n-1 {
			out = append(out, groupSrcRows{pool: pool, segs: cur})
			cur, curRows = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, groupSrcRows{pool: pool, segs: cur})
	}
	return out
}

// groupSrcRows is one exact row range of a relation.
type groupSrcRows struct {
	pool  *storage.Pool
	mem   []prow
	segs  []sseg
	run   storage.Run // PageView
	isRun bool
}

func (rs *groupSrcRows) open() rowIter {
	switch {
	case rs.isRun:
		return &runRowIter{rd: storage.NewRunReader(rs.pool, rs.run)}
	case rs.segs != nil:
		return &segRowIter{pool: rs.pool, segs: rs.segs}
	default:
		return &memRowIter{rows: rs.mem}
	}
}

// ---------------------------------------------------------------------------
// Appending (resident until the budget says otherwise)

// spillAppender accumulates rows in RAM up to capRows and transparently
// switches to writing a packed run past it. The input order is the
// output order either way, so a relation appended in (tid, key) order
// spills as one sorted sequential run.
type spillAppender struct {
	pool    *storage.Pool
	capRows int // 0 = unbounded (never spill)
	mem     []prow
	w       *storage.RunWriter // stages an extent itself once spilled
	nrows   int64
	st      *spillStats
	closed  bool
}

func (a *spillAppender) add(rows []prow) error {
	a.nrows += int64(len(rows))
	if a.w == nil {
		if a.capRows <= 0 || len(a.mem)+len(rows) <= a.capRows {
			a.mem = append(a.mem, rows...)
			return nil
		}
		a.w = storage.NewRunWriter(a.pool)
		if err := a.w.Rows(a.mem); err != nil {
			return err
		}
		a.mem = nil
	}
	return a.w.Rows(rows)
}

// finishSeg seals the appender into one relation segment.
func (a *spillAppender) finishSeg() (sseg, error) {
	a.closed = true
	if a.w == nil {
		return sseg{mem: a.mem}, nil
	}
	run, err := a.w.Close()
	if err != nil {
		return sseg{}, err
	}
	a.st.addRun(run)
	return sseg{run: run, spilled: true}, nil
}

// finish seals the appender into a single-segment relation.
func (a *spillAppender) finish() (*srel, error) {
	seg, err := a.finishSeg()
	if err != nil {
		return nil, err
	}
	return &srel{segs: []sseg{seg}, nrows: a.nrows}, nil
}

// abort releases the appender's writer (freeing any partial run) after
// an error; harmless after finish.
func (a *spillAppender) abort(pool *storage.Pool) {
	if a.closed || a.w == nil {
		return
	}
	a.closed = true
	if run, err := a.w.Close(); err == nil {
		run.Free(pool)
	}
}

// assembleSrel joins worker segments (in morsel order) into one
// relation, dropping empty segments.
func assembleSrel(segs []sseg) *srel {
	r := &srel{}
	for _, s := range segs {
		n := s.rows()
		if n == 0 {
			continue
		}
		r.segs = append(r.segs, s)
		r.nrows += n
	}
	return r
}

// ---------------------------------------------------------------------------
// Counting (the paper's "sort R'_k on items; count" step, out of core)

// keyCounter implements the count step for one worker over a streamed
// key column. On the sort kernel, keys accumulate in a bounded buffer
// that is radix-sorted and spilled as a sorted key run when full; finish
// merges the runs k-way (cascaded to the budget's fan-in) while run-length
// counting the sorted stream into a packed C_k, and below the budget no
// run is ever written. On the table kernel (pack.go) keys increment a
// direct-address table instead: nothing is buffered, sorted, or spilled.
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
	if keysSorted(kc.keys) {
		kc.skips++
		return
	}
	kc.tmp = growU64(kc.tmp, len(kc.keys))
	xsort.RadixSortU64(kc.keys, kc.tmp)
}

// finish produces the sort kernel's packed C_k at minSup, appending to
// dst's buffers.
func (kc *keyCounter) finish(minSup int64, dst pkCounts) (pkCounts, error) {
	if len(kc.runs) == 0 {
		return sortCountKeys(kc.keys, &kc.tmp, minSup, dst, &kc.skips), nil
	}
	if err := kc.flushRun(); err != nil {
		return dst, err
	}
	return countMergedRuns(kc.ctx, kc.pool, kc.takeRuns(), kc.fanIn, 1, minSup, dst)
}

// takeRuns hands the counter's runs to the caller (who becomes
// responsible for consuming or freeing them).
func (kc *keyCounter) takeRuns() []storage.Run {
	runs := kc.runs
	kc.runs = nil
	return runs
}

// abort frees any runs not yet consumed by finish.
func (kc *keyCounter) abort() {
	for i := range kc.runs {
		kc.runs[i].Free(kc.pool)
	}
	kc.runs = nil
}

// countMergedRuns streams the k-way merge of sorted key runs (cascade
// rounds fanned across workers) and run-length counts the merged stream
// into dst at minSup. The runs are consumed. ctx (nil for never) is
// polled every cancelCheckRows merged keys; on cancellation the merge's
// own error path frees the runs, so the counter unwinds leak-free.
func countMergedRuns(ctx context.Context, pool *storage.Pool, runs []storage.Run, fanIn, workers int, minSup int64, dst pkCounts) (pkCounts, error) {
	var cur uint64
	var n int64
	var sinceCheck int
	flush := func() {
		if n >= minSup {
			dst.keys = append(dst.keys, cur)
			dst.counts = append(dst.counts, n)
		}
	}
	err := xsort.MergeKeysN(pool, runs, fanIn, workers, func(k uint64) error {
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

// finishCounters folds the worker-private counters of one pass into the
// packed C_k at minSup and reports the kernel that produced it. Counters
// of one pass share a key space and a bound, so either the table kernel
// was open to all of them — then no runs exist anywhere, and the tables
// (plus any keys a worker was still buffering) sum element-wise into one
// read-out — or to none: a single counter then finishes by itself; with
// several and no spilled runs the sorted remainders merge in RAM;
// otherwise every remainder is flushed as a (small) run and one cascaded
// merge counts the whole key column. Aborts the counters' runs on error.
func finishCounters(pool *storage.Pool, kcs []*keyCounter, fanIn, workers int, minSup int64, dst pkCounts) (pkCounts, string, error) {
	for _, acc := range kcs {
		if acc.tab == nil {
			continue
		}
		for _, kc := range kcs {
			if kc == acc {
				continue
			}
			for key, c := range kc.tab {
				acc.tab[key] += c
			}
			for _, key := range kc.keys {
				acc.tab[key]++
			}
			kc.keys = kc.keys[:0]
		}
		acc.skips++
		return emitCountTable(acc.tab, minSup, dst), CountTable, nil
	}
	if len(kcs) == 1 {
		ck, err := kcs[0].finish(minSup, dst)
		return ck, CountSort, err
	}
	spilledAny := false
	for _, kc := range kcs {
		if len(kc.runs) > 0 {
			spilledAny = true
			break
		}
	}
	if !spilledAny {
		parts := make([]pkCounts, 0, len(kcs))
		for _, kc := range kcs {
			if len(kc.keys) == 0 {
				continue
			}
			parts = append(parts, sortCountKeys(kc.keys, &kc.tmp, 1, pkCounts{}, &kc.skips))
		}
		return mergePackedCounts(parts, minSup, dst), CountSort, nil
	}
	var runs []storage.Run
	abortAll := func() {
		for _, r := range runs {
			r.Free(pool)
		}
		for _, kc := range kcs {
			kc.abort()
		}
	}
	for _, kc := range kcs {
		if err := kc.flushRun(); err != nil {
			abortAll()
			return dst, CountSort, err
		}
		runs = append(runs, kc.takeRuns()...)
	}
	ck, err := countMergedRuns(kcs[0].ctx, pool, runs, fanIn, workers, minSup, dst)
	return ck, CountSort, err
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
