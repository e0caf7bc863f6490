// Exchange operators: the morsel-driven parallel substrate of the
// executor. A query pipeline is split into fragments — independent
// operator trees over disjoint page ranges of the same heap file — and an
// exchange runs them on worker goroutines:
//
//   - Gather runs N fragments on up to W workers and re-emits their
//     batches in fragment order, so a plan wrapped in a Gather produces
//     exactly the serial row order (fragments over consecutive page
//     ranges concatenate to the full serial scan).
//   - ParallelGroup (pgroup.go) aggregates N fragments into per-worker hash
//     tables and merges them; its output order does not depend on the
//     fragment order at all.
//
// Fragment boundaries over sorted files follow the carry-tid discipline
// of the core executor (SplitByKey): boundaries are chosen at page edges
// where the leading key strictly increases, each fragment starts one page
// early and applies a key Window, so a key group spanning a page edge is
// processed by exactly one fragment.
package exec

import (
	"io"
	"sync"
	"sync/atomic"

	hp "setm/internal/heap"
	"setm/internal/tuple"
)

// gatherQueueDepth bounds the per-fragment output queue: workers run at
// most this many batches ahead of the consumer on any one fragment.
const gatherQueueDepth = 4

// Gather runs its fragment pipelines on worker goroutines and emits their
// batches in fragment order. Fragments are claimed dynamically (morsel
// stealing): an idle worker picks the next unstarted fragment, so skew in
// fragment cost does not idle the pool. Batches cross the exchange as
// dense copies into recycled buffers — the producer contract ("batch
// valid until next NextBatch") stops at the channel.
//
// A Gather is re-openable: Close stops the workers and a later Open
// restarts them, which the engine's plan cache relies on.
type Gather struct {
	fragments []Operator
	schema    *tuple.Schema
	workers   int

	outs    []chan *tuple.Batch
	free    []chan *tuple.Batch
	errs    []error // errs[f] is written before outs[f] closes
	perRows []int64 // rows produced by fragment f, same publication order
	cancel  chan struct{}
	wg      sync.WaitGroup
	claim   atomic.Int64

	cur  int          // fragment the consumer is draining
	last *tuple.Batch // batch handed out last call, recycled on the next

	stats OpStats
}

// NewGather builds a gather exchange over fragments, run on up to workers
// goroutines. All fragments must share one schema.
func NewGather(fragments []Operator, workers int) *Gather {
	if workers < 1 {
		workers = 1
	}
	if workers > len(fragments) {
		workers = len(fragments)
	}
	return &Gather{fragments: fragments, schema: fragments[0].Schema(), workers: workers}
}

func (g *Gather) Schema() *tuple.Schema { return g.schema }

// Fragments returns the fragment count (for EXPLAIN).
func (g *Gather) Fragments() int { return len(g.fragments) }

// WorkerRows reports rows produced per fragment; valid after the gather
// has been drained.
func (g *Gather) WorkerRows() []int64 { return g.perRows }

func (g *Gather) Open() error {
	g.stats.Reset()
	g.stopWorkers()
	n := len(g.fragments)
	g.outs = make([]chan *tuple.Batch, n)
	g.free = make([]chan *tuple.Batch, n)
	g.errs = make([]error, n)
	g.perRows = make([]int64, n)
	for i := range g.outs {
		g.outs[i] = make(chan *tuple.Batch, gatherQueueDepth)
		g.free[i] = make(chan *tuple.Batch, gatherQueueDepth)
	}
	g.cancel = make(chan struct{})
	g.claim.Store(0)
	g.cur, g.last = 0, nil
	g.wg.Add(g.workers)
	for w := 0; w < g.workers; w++ {
		go g.worker()
	}
	return nil
}

func (g *Gather) worker() {
	defer g.wg.Done()
	for {
		f := int(g.claim.Add(1)) - 1
		if f >= len(g.fragments) {
			return
		}
		if !g.runFragment(f) {
			return // cancelled
		}
	}
}

// runFragment drains fragment f into its output queue; returns false when
// cancelled mid-stream.
func (g *Gather) runFragment(f int) bool {
	op := g.fragments[f]
	err := op.Open()
	if err == nil {
		var rows int64
		for {
			var b *tuple.Batch
			b, err = op.NextBatch()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				break
			}
			var out *tuple.Batch
			select {
			case out = <-g.free[f]:
				out.Reset()
			default:
				out = tuple.NewBatch(g.schema)
			}
			out.Grow(b.Len())
			out.Append(b)
			rows += int64(out.Len())
			select {
			case g.outs[f] <- out:
			case <-g.cancel:
				op.Close()
				return false
			}
		}
		g.perRows[f] = rows
	}
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	g.errs[f] = err
	close(g.outs[f])
	return true
}

func (g *Gather) nextBatch() (*tuple.Batch, error) {
	if g.last != nil {
		// Recycle the buffer the consumer has finished with. The queue has
		// the same capacity as the free list, so the send cannot block.
		select {
		case g.free[g.cur] <- g.last:
		default:
		}
		g.last = nil
	}
	for g.cur < len(g.outs) {
		b, ok := <-g.outs[g.cur]
		if !ok {
			if err := g.errs[g.cur]; err != nil {
				return nil, err
			}
			g.cur++
			continue
		}
		g.last = b
		return b, nil
	}
	return nil, io.EOF
}

// stopWorkers cancels and joins the worker pool, draining queued batches.
func (g *Gather) stopWorkers() {
	if g.cancel == nil {
		return
	}
	close(g.cancel)
	// Unblock producers stuck on full queues.
	for _, ch := range g.outs {
		for {
			if _, ok := <-ch; !ok {
				break
			}
		}
	}
	g.wg.Wait()
	g.cancel = nil
	g.outs, g.free = nil, nil
}

func (g *Gather) Close() error {
	g.stopWorkers()
	g.last = nil
	return nil
}

// ---------------------------------------------------------------------------
// Key windows and fragment splitting

// Window bounds a stream that is sorted ascending on integer column col to
// keys in [lo, hi): leading rows below lo are skipped, and the stream ends
// at the first row ≥ hi (early stop — later pages are never read). This
// is how a fragment over an overlapping page range claims exactly its key
// span.
type Window struct {
	child  Operator
	col    int
	lo, hi int64
	hasLo  bool
	hasHi  bool

	skipped bool
	done    bool
	selBuf  []int32

	stats OpStats
}

// NewWindow bounds child (sorted on col) to [lo, hi); hasLo/hasHi mark
// open ends.
func NewWindow(child Operator, col int, lo int64, hasLo bool, hi int64, hasHi bool) *Window {
	return &Window{child: child, col: col, lo: lo, hasLo: hasLo, hi: hi, hasHi: hasHi}
}

func (w *Window) Schema() *tuple.Schema { return w.child.Schema() }

func (w *Window) Open() error {
	w.stats.Reset()
	w.skipped, w.done = false, false
	return w.child.Open()
}

func (w *Window) Close() error { return w.child.Close() }

// Bounds reports the window for EXPLAIN.
func (w *Window) Bounds() (lo int64, hasLo bool, hi int64, hasHi bool) {
	return w.lo, w.hasLo, w.hi, w.hasHi
}

func (w *Window) nextBatch() (*tuple.Batch, error) {
	if w.done {
		return nil, io.EOF
	}
	for {
		b, err := w.child.NextBatch()
		if err != nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		// The stream is sorted on col, so the surviving rows are one
		// contiguous logical range [start, end) of the batch.
		start := 0
		if !w.skipped && w.hasLo {
			col := &b.Cols[w.col]
			for start < n && col.I[b.RowIdx(start)] < w.lo {
				start++
			}
			if start < n {
				w.skipped = true
			}
		}
		end := n
		if w.hasHi {
			col := &b.Cols[w.col]
			for end > start && col.I[b.RowIdx(end-1)] >= w.hi {
				end--
			}
			if end < n {
				w.done = true // the bound was reached inside this batch
			}
		}
		if start >= end {
			if w.done {
				return nil, io.EOF
			}
			continue
		}
		if start == 0 && end == n {
			return b, nil
		}
		sel := w.selBuf[:0]
		for i := start; i < end; i++ {
			sel = append(sel, int32(b.RowIdx(i)))
		}
		w.selBuf = sel[:0:cap(sel)]
		b.SetSel(sel)
		return b, nil
	}
}

// KeyRange is one fragment's share of a key-sorted heap file: the page
// range to scan and the key window to apply. Start pages overlap the
// previous fragment by one page (the carry page), so a key group spanning
// a page edge is seen — and windowed — by exactly one fragment.
type KeyRange struct {
	PageStart, PageEnd int
	Lo, Hi             int64
	HasLo, HasHi       bool
}

// SplitByKey cuts a heap file sorted ascending on integer column col into
// at most n KeyRanges with key-aligned boundaries. Boundaries are chosen
// only at pages whose first key strictly exceeds the previous page's
// first key: then a group equal to a boundary key cannot start earlier
// than the carry page, so scanning from one page early and windowing to
// [lo, hi) partitions the rows exactly. Returns fewer ranges (possibly
// one) when the file has too few distinct page boundaries.
func SplitByKey(f *hp.File, col, n int) ([]KeyRange, error) {
	pages := f.Pages()
	if n < 2 || pages < 2 {
		return []KeyRange{{PageStart: 0, PageEnd: pages}}, nil
	}
	type bound struct {
		page int
		key  int64
	}
	var bounds []bound
	step := pages / n
	if step < 1 {
		step = 1
	}
	prevKey, prevOK, err := f.FirstKey(0, col)
	if err != nil {
		return nil, err
	}
	target := step
	for p := 1; p < pages && len(bounds) < n-1; p++ {
		k, ok, err := f.FirstKey(p, col)
		if err != nil {
			return nil, err
		}
		if ok && (!prevOK || k > prevKey) && p >= target {
			bounds = append(bounds, bound{page: p, key: k})
			target = p + step
		}
		if ok {
			prevKey, prevOK = k, ok
		}
	}
	ranges := make([]KeyRange, 0, len(bounds)+1)
	cur := KeyRange{PageStart: 0}
	for _, b := range bounds {
		cur.PageEnd = b.page
		cur.Hi, cur.HasHi = b.key, true
		ranges = append(ranges, cur)
		// Next fragment: one carry page early, lower-bounded by the key.
		cur = KeyRange{PageStart: b.page - 1, Lo: b.key, HasLo: true}
	}
	cur.PageEnd = pages
	ranges = append(ranges, cur)
	return ranges, nil
}

// ProbeRange returns the page range of a key-sorted heap file that can
// hold rows with keys in [lo, hi): scanning starts at the last page whose
// first key is strictly below lo (rows ≥ lo cannot occur earlier) and
// ends with the file — the Window's early stop cuts the tail without
// reading it. Used for the right side of a split merge join, whose
// boundaries come from the left file.
func ProbeRange(f *hp.File, col int, lo int64, hasLo bool) (start int, err error) {
	if !hasLo {
		return 0, nil
	}
	// Binary search the page first-keys for the last strictly-below page.
	// Pages with unreadable keys (the possibly-empty tail) sort high.
	n := f.Pages()
	loP, hiP := 0, n
	for loP < hiP {
		mid := int(uint(loP+hiP) >> 1)
		k, ok, err := f.FirstKey(mid, col)
		if err != nil {
			return 0, err
		}
		if ok && k < lo {
			loP = mid + 1
		} else {
			hiP = mid
		}
	}
	if loP == 0 {
		return 0, nil
	}
	return loP - 1, nil
}

// FragmentScans clones a stateless scan pipeline — Rename, vectorized
// Filter, and pure column Project over one whole-file HeapScan — into n
// page-range fragments that together cover the file. Consecutive page
// ranges concatenate to the serial scan order and every cloned operator is
// order-preserving, so a Gather (or order-insensitive consumer like
// ParallelGroup) over the fragments reproduces the serial pipeline's
// output exactly. Clones share the compiled predicate closures, which are
// stateless, but own their buffers. Returns nil when the tree contains
// anything else — row predicates and projector closures may carry shared
// scratch state — or when the file is too small to split.
func FragmentScans(op Operator, n int) []Operator {
	var chain []Operator
	cur := op
	var base *HeapScan
walk:
	for {
		switch v := cur.(type) {
		case *Rename:
			chain = append(chain, v)
			cur = v.child
		case *Filter:
			if v.pred != nil {
				return nil
			}
			chain = append(chain, v)
			cur = v.child
		case *Project:
			if v.colIdxs == nil {
				return nil
			}
			chain = append(chain, v)
			cur = v.child
		case *HeapScan:
			if v.end != 0 {
				return nil // already ranged
			}
			base = v
			break walk
		default:
			return nil
		}
	}
	pages := base.file.Pages()
	if n < 2 || pages < 2 {
		return nil
	}
	if n > pages {
		n = pages
	}
	frags := make([]Operator, n)
	for i := range frags {
		frags[i] = rebuildChain(chain, NewHeapScanRange(base.file, i*pages/n, (i+1)*pages/n))
	}
	return frags
}

// rebuildChain re-instantiates the recorded pipeline operators (outermost
// first) over a new leaf.
func rebuildChain(chain []Operator, leaf Operator) Operator {
	cur := leaf
	for j := len(chain) - 1; j >= 0; j-- {
		switch v := chain[j].(type) {
		case *Rename:
			cur = NewRename(cur, v.schema)
		case *Filter:
			cur = NewFilterVec(cur, v.vecs, nil)
		case *Project:
			cur = NewProjectColumns(cur, v.colIdxs, v.schema)
		}
	}
	return cur
}

// scanPipeline walks a position-preserving pipeline (Rename or stateless
// Filter only) down to its whole-file HeapScan, returning the chain
// (outermost first) and the scan; (nil, nil) when the shape doesn't match.
// Column indexes of the pipeline's output schema are valid against the
// scan's schema — neither operator reorders columns.
func scanPipeline(op Operator) ([]Operator, *HeapScan) {
	var chain []Operator
	cur := op
	for {
		switch v := cur.(type) {
		case *Rename:
			chain = append(chain, v)
			cur = v.child
		case *Filter:
			if v.pred != nil {
				return nil, nil
			}
			chain = append(chain, v)
			cur = v.child
		case *HeapScan:
			if v.end != 0 {
				return nil, nil
			}
			return chain, v
		default:
			return nil, nil
		}
	}
}

// SplitMergeJoin replicates a merge join over key-aligned page-range
// fragments under a Gather. Both inputs must be position-preserving scan
// pipelines (see scanPipeline) whose heap files are physically ordered on
// the first join key — the planner guarantees this by splitting only
// joins whose inputs needed no sort. SplitByKey places fragment
// boundaries on the left file only where a page's first key strictly
// exceeds its predecessor's, each fragment starts one page early, and the
// Window bounds [Lo, Hi) make the overlap exact — so a run of duplicate
// keys is processed by exactly one fragment. The right side of each
// fragment scans from ProbeRange's start under the same key window, which
// admits exactly the rows that can match. Fragment outputs concatenate in
// left key order, reproducing the serial join bit for bit. Returns nil
// when the shape doesn't support splitting.
func SplitMergeJoin(m *MergeJoin, workers int) *Gather {
	if workers < 2 || m.residual != nil || len(m.leftKeys) == 0 {
		return nil
	}
	lChain, lScan := scanPipeline(m.left)
	rChain, rScan := scanPipeline(m.right)
	if lScan == nil || rScan == nil {
		return nil
	}
	lCol, rCol := m.leftKeys[0], m.rightKeys[0]
	if m.left.Schema().Cols[lCol].Kind != tuple.KindInt || m.right.Schema().Cols[rCol].Kind != tuple.KindInt {
		return nil
	}
	ranges, err := SplitByKey(lScan.file, lCol, workers)
	if err != nil || len(ranges) < 2 {
		return nil
	}
	frags := make([]Operator, len(ranges))
	for i, kr := range ranges {
		var lv Operator = NewHeapScanRange(lScan.file, kr.PageStart, kr.PageEnd)
		lv = NewWindow(lv, lCol, kr.Lo, kr.HasLo, kr.Hi, kr.HasHi)
		lv = rebuildChain(lChain, lv)
		start := 0
		if kr.HasLo {
			if start, err = ProbeRange(rScan.file, rCol, kr.Lo, kr.HasLo); err != nil {
				return nil
			}
		}
		var rv Operator = NewHeapScanRange(rScan.file, start, rScan.file.Pages())
		rv = NewWindow(rv, rCol, kr.Lo, kr.HasLo, kr.Hi, kr.HasHi)
		rv = rebuildChain(rChain, rv)
		j := NewMergeJoin(lv, rv, m.leftKeys, m.rightKeys, nil)
		if m.hasVecGT {
			j.SetVecResidualGT(m.gtLeft, m.gtRight)
		}
		frags[i] = j
	}
	return NewGather(frags, workers)
}
