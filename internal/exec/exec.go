// Package exec implements the nine query-execution operators of the
// engine: heap scan, rename, filter, project, sort, sort-based and hash
// group/count, merge-scan join and hash join. A plan runs on the goroutine
// that pulls it.
//
// The operators are vectorized and have one pull contract: data moves as
// tuple.Batch integer column vectors (~1024 rows per pull) through
// NextBatch, the only form rows take. Drain copies a result out as one
// []int64 per row. The merge-scan join and sort operators are the two
// primitives the paper reduces Algorithm SETM to (Section 4.4). Every join
// is an equi-join; the one condition evaluated inside a join is the merge
// join's right > left column test (SetVecResidualGT), SETM's lexicographic
// extension condition.
//
// Expressions have one form, Expr: a function that computes a column
// vector over a batch's live rows. Project evaluates one per output column;
// Filter takes its conjuncts as VecPredicates and narrows the batch's
// selection vector one conjunct at a time, so a later conjunct is evaluated
// only on the rows the earlier ones kept.
package exec

import (
	"io"
	"slices"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
	"setm/internal/xsort"
)

// Operator is a pull-based stream of batches. Open prepares the stream,
// NextBatch returns batches until io.EOF (and io.EOF again on every later
// call), Close releases resources. A batch is valid only until the next
// NextBatch or Close call on the same operator; producers reuse their
// buffers. An operator may be opened again after Close and yields the same
// rows each time.
type Operator interface {
	// Schema describes the batches produced.
	Schema() *tuple.Schema
	// Open prepares the operator (and its inputs) for iteration.
	Open() error
	// NextBatch returns the next non-empty batch or io.EOF.
	NextBatch() (*tuple.Batch, error)
	// Close releases resources; it must be safe after a failed Open.
	Close() error
}

// Drain pulls every row of op (calling Open and Close) into memory, one
// []int64 per row in schema order.
func Drain(op Operator) ([][]int64, error) {
	batches, err := DrainBatches(op)
	if err != nil {
		return nil, err
	}
	var rows [][]int64
	for _, b := range batches { // dense copies
		for i := range b.Len() {
			row := make([]int64, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c].I[i]
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Scans

// HeapScan reads a heap file front to back, decoding records directly into
// column vectors.
type HeapScan struct {
	file *hp.File
	sc   *hp.Scanner
	buf  *tuple.Batch

	stats OpStats
}

// NewHeapScan returns a scan over f.
func NewHeapScan(f *hp.File) *HeapScan { return &HeapScan{file: f} }

func (s *HeapScan) Schema() *tuple.Schema { return s.file.Schema() }

func (s *HeapScan) Open() error {
	s.stats.Reset()
	s.sc = s.file.Scan()
	if s.buf == nil {
		s.buf = tuple.NewBatch(s.file.Schema())
	}
	return nil
}

func (s *HeapScan) nextBatch() (*tuple.Batch, error) {
	if s.sc == nil {
		return nil, io.EOF
	}
	s.buf.Reset()
	if _, err := s.sc.NextBatch(s.buf, tuple.BatchSize); err != nil {
		return nil, err
	}
	return s.buf, nil
}

func (s *HeapScan) Close() error {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	return nil
}

// Rename passes batches through unchanged under a different schema; the
// planner uses it to qualify base-table column names with FROM-clause
// bindings ("sales r1" exposes columns "r1.trans_id", "r1.item").
type Rename struct {
	child  Operator
	schema *tuple.Schema
	view   tuple.Batch

	stats OpStats
}

// NewRename wraps child with the given schema (which must have the same
// arity as the child's).
func NewRename(child Operator, schema *tuple.Schema) *Rename {
	return &Rename{child: child, schema: schema}
}

func (r *Rename) Schema() *tuple.Schema { return r.schema }
func (r *Rename) Open() error           { r.stats.Reset(); return r.child.Open() }
func (r *Rename) Close() error          { return r.child.Close() }

func (r *Rename) nextBatch() (*tuple.Batch, error) {
	b, err := r.child.NextBatch()
	if err != nil {
		return nil, err
	}
	return b.View(&r.view, r.schema, b.Cols), nil
}

// ---------------------------------------------------------------------------
// Filter / Project

// Expr evaluates one integer expression over the live rows of a batch: for
// each physical row phys in sel (every physical row when sel is nil) it sets
// out[phys], and it returns the vector holding the results. out has one slot
// per physical row of b. A column reference returns the batch's own vector
// instead, which callers read and never write. Booleans are 0/1.
type Expr func(b *tuple.Batch, sel []int32, out []int64) ([]int64, error)

// ColExpr is a reference to column i: it costs nothing, returning the
// batch's vector as it stands.
func ColExpr(i int) Expr {
	return func(b *tuple.Batch, _ []int32, _ []int64) ([]int64, error) { return b.Cols[i].I, nil }
}

// VecPredicate is a vectorized predicate: given the live physical rows of
// b (`in`, nil meaning all physical rows), it appends the surviving
// physical rows to out and returns it. The planner compiles every WHERE and
// HAVING conjunct to this form.
type VecPredicate func(b *tuple.Batch, in, out []int32) ([]int32, error)

// Filter passes through the rows that satisfy all of its conjuncts. It
// narrows the batch's selection one conjunct at a time, so each conjunct
// sees only the rows the ones before it kept; no row is copied.
type Filter struct {
	child Operator
	vecs  []VecPredicate

	selBuf  []int32
	selBuf2 []int32

	stats OpStats
}

// NewFilter wraps child with conjuncts, applied in order.
func NewFilter(child Operator, vecs []VecPredicate) *Filter {
	return &Filter{child: child, vecs: vecs}
}

func (f *Filter) Schema() *tuple.Schema { return f.child.Schema() }
func (f *Filter) Open() error           { f.stats.Reset(); return f.child.Open() }
func (f *Filter) Close() error          { return f.child.Close() }

func (f *Filter) nextBatch() (*tuple.Batch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil {
			return nil, err
		}
		// cur is the working selection of live physical rows; nil means
		// every physical row. It alternates between the two scratch buffers
		// as each conjunct narrows it.
		cur := b.Sel()
		for _, vp := range f.vecs {
			next := f.selBuf[:0]
			f.selBuf, f.selBuf2 = f.selBuf2, f.selBuf
			cur, err = vp(b, cur, next)
			if err != nil {
				return nil, err
			}
			f.selBuf2 = cur[:0:cap(cur)] // keep grown capacity for reuse
			if len(cur) == 0 {
				break
			}
		}
		if len(f.vecs) > 0 && len(cur) == 0 {
			continue
		}
		if cur != nil {
			b.SetSel(cur)
		}
		return b, nil
	}
}

// Project evaluates one Expr per output column. A column reference shares
// the child's vector and the child's selection passes through, so a pure
// column projection copies nothing; a computed column is written for the
// live rows only.
type Project struct {
	child  Operator
	schema *tuple.Schema
	exprs  []Expr

	cols []tuple.ColVec // the output view's columns, refilled every batch
	bufs [][]int64      // each column's result buffer
	view tuple.Batch

	stats OpStats
}

// NewProject builds a projection with the given output schema, one
// expression per output column.
func NewProject(child Operator, schema *tuple.Schema, exprs []Expr) *Project {
	return &Project{child: child, schema: schema, exprs: exprs,
		cols: make([]tuple.ColVec, len(exprs)), bufs: make([][]int64, len(exprs))}
}

func (p *Project) Schema() *tuple.Schema { return p.schema }
func (p *Project) Open() error           { p.stats.Reset(); return p.child.Open() }
func (p *Project) Close() error          { return p.child.Close() }

func (p *Project) nextBatch() (*tuple.Batch, error) {
	b, err := p.child.NextBatch()
	if err != nil {
		return nil, err
	}
	n := b.NumPhysical()
	for c, e := range p.exprs {
		if cap(p.bufs[c]) < n {
			p.bufs[c] = make([]int64, n)
		}
		if p.cols[c].I, err = e(b, b.Sel(), p.bufs[c][:n]); err != nil {
			return nil, err
		}
	}
	return b.View(&p.view, p.schema, p.cols), nil
}

// ---------------------------------------------------------------------------
// Sort

// SortKey names one sort column and direction for the vectorized sort.
type SortKey struct {
	Col  int
	Desc bool
}

// DefaultSortMemory bounds the bytes of rows an external sort holds per
// run when it is given a non-positive limit (4 MB — large enough that the
// paper's data sets sort in one or two runs, small enough to exercise
// merging in tests).
const DefaultSortMemory = 4 << 20

// Sort materializes and orders its input on its keys. Input batches are
// gathered into one columnar store and an index permutation is sorted with
// column comparisons; the permutation index is the final tie-break, so
// equal keys keep their input order. Without a pool that is the whole
// sort. With a pool the sort is external: every memLimit bytes of input
// the store is sorted and written as a heap-file run in the pool, and
// xsort.MergeFiles merges the runs, so their I/O is counted (the
// 2·Σ‖R'_i‖ term of Section 4.3). The sorted file lives until Close.
type Sort struct {
	child    Operator
	keys     []SortKey
	pool     *storage.Pool
	memLimit int

	// in-memory path state: the input as it arrived when it was already
	// in key order, else one store and its sorted permutation
	chunks []*tuple.Batch
	store  *tuple.Batch
	perm   []int32
	pos    int
	buf    *tuple.Batch

	out *HeapScan // external path: scan of the sorted file, which Close frees

	stats OpStats
}

// NewSortKeys builds a sort on keys: in memory when pool is nil, external
// otherwise, writing runs of at most memLimit bytes (0 = DefaultSortMemory)
// through pool.
func NewSortKeys(child Operator, keys []SortKey, pool *storage.Pool, memLimit int) *Sort {
	return &Sort{child: child, keys: keys, pool: pool, memLimit: memLimit}
}

func (s *Sort) Schema() *tuple.Schema { return s.child.Schema() }

func (s *Sort) Open() error {
	s.stats.Reset()
	// The child is drained here, so it is closed here — also when its Open
	// fails part-way, which nobody else would clean up after.
	defer s.child.Close()
	if err := s.child.Open(); err != nil {
		return err
	}
	schema := s.child.Schema()
	cols := make([]int, len(s.keys))
	desc := make([]bool, len(s.keys))
	for i, k := range s.keys {
		cols[i], desc[i] = k.Col, k.Desc
	}
	if s.pool == nil {
		return s.gather(cols, desc)
	}
	mem, width := s.memLimit, 8*schema.Len()
	if mem <= 0 {
		mem = DefaultSortMemory
	}
	runRows := (mem + width - 1) / width
	store := tuple.NewBatch(schema)
	var runs []*hp.File
	// spill sorts the store into a fresh run; on failure it frees them all.
	spill := func() error {
		store.SetSel(sortPerm(store, cols, desc))
		run, err := hp.Create(s.pool, schema)
		if err == nil {
			runs = append(runs, run)
			err = run.AppendBatch(store)
		}
		store.Reset()
		if err != nil {
			hp.FreeAll(runs)
		}
		return err
	}
	for {
		b, err := s.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			hp.FreeAll(runs)
			return err
		}
		for from, n := 0, b.Len(); from < n; {
			k := min(n-from, runRows-store.Len())
			store.AppendRange(b, from, from+k)
			from += k
			if store.Len() == runRows {
				if err := spill(); err != nil {
					return err
				}
			}
		}
	}
	// Every external sort writes at least one run, the last one included.
	if store.Len() > 0 || len(runs) == 0 {
		if err := spill(); err != nil {
			return err
		}
	}
	f, err := xsort.MergeFiles(s.pool, runs, cols, desc)
	if err != nil {
		return err
	}
	s.out = NewHeapScan(f)
	return s.out.Open()
}

// gather drains the child for the in-memory sort. Each batch is kept as a
// dense copy of its own, so the input is copied once and never re-grown.
// Batches already in key order (R_k's ORDER BY: the filter join keeps
// R'_k's order) are emitted as they came; otherwise they are concatenated
// once, at their exact size, and the permutation is sorted.
func (s *Sort) gather(cols []int, desc []bool) error {
	s.chunks, s.store, s.perm, s.pos = nil, nil, nil, 0
	var chunks []*tuple.Batch
	total, inOrder := 0, !slices.Contains(desc, true)
	for {
		b, err := s.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if b.Len() == 0 {
			continue
		}
		c := b.Clone()
		if inOrder && len(chunks) > 0 {
			prev := chunks[len(chunks)-1]
			inOrder = prev.CompareRows(prev.Len()-1, c, 0, cols, cols, nil) <= 0
		}
		inOrder = inOrder && storeSortedAsc(c, cols)
		chunks = append(chunks, c)
		total += c.Len()
	}
	if inOrder {
		s.chunks = chunks
		return nil
	}
	store := tuple.NewBatch(s.child.Schema())
	store.Grow(total)
	for _, c := range chunks {
		store.Append(c)
	}
	s.store, s.perm = store, sortPerm(store, cols, desc)
	if s.buf == nil {
		s.buf = tuple.NewBatch(store.Schema())
	}
	return nil
}

// sortPermRadix sorts perm by the ascending integer key columns of store
// using the packed byte-wise radix kernel: the columns are packed into one
// word by their exact bounds (keyPack), so unsigned order equals
// lexicographic key order. The row index rides in the pair's minor word,
// which both carries the permutation through the sort and breaks ties by
// input position — the same total order the comparison paths produce.
// Returns false (perm untouched) when the combined key domain needs more
// than 64 bits.
func sortPermRadix(store *tuple.Batch, cols []int, perm []int32) bool {
	n := len(perm)
	if n < 2 {
		return true
	}
	p, ok := newKeyPack(columnRanges(store, cols, n))
	if !ok {
		return false
	}
	keys := make([]uint64, n)
	p.pack(store, cols, keys, nil)
	sorted := make([]storage.PackedRow, n)
	for r, k := range keys {
		sorted[r] = storage.PackedRow{Tid: k, Key: uint64(uint32(r))}
	}
	xsort.RadixSortRows(sorted, make([]storage.PackedRow, n))
	for i := range sorted {
		perm[i] = int32(uint32(sorted[i].Key))
	}
	return true
}

// storeSortedAsc reports whether store is already lexicographically sorted
// ascending on the given integer key columns. One linear pass over the raw
// column slices; the common case (first key decides) touches one slice.
func storeSortedAsc(store *tuple.Batch, cols []int) bool {
	n := store.Len()
	for r := 1; r < n; r++ {
		for _, c := range cols {
			v := store.Cols[c].I
			if v[r-1] < v[r] {
				break
			}
			if v[r-1] > v[r] {
				return false
			}
		}
	}
	return true
}

// sortPerm returns the permutation that orders store's rows on the key
// columns cols (desc[i] flips cols[i]), equal keys in input order.
func sortPerm(store *tuple.Batch, cols []int, desc []bool) []int32 {
	n := store.Len()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	// All-ascending keys (every SETM sort) compare raw column slices; a
	// descending key takes the per-key comparator.
	asc := !slices.Contains(desc, true)
	// slices.SortFunc (not sort.Slice) avoids the reflect-based swapper:
	// the permutation swaps as concrete int32s. The index tie-break makes
	// every ordering total, so the unstable pdqsort still yields the same
	// (input-order-on-ties) permutation a stable sort would.
	switch {
	case asc && storeSortedAsc(store, cols):
		// Input already sorted on the keys — common when a join preserves
		// the physical order the ORDER BY asks for but the planner's
		// conservative ordering claim cannot prove it (e.g. SETM's R'_k).
		// The permutation stays the identity, which a stable sort of a
		// sorted store would produce anyway, so output is unchanged.
	case asc && sortPermRadix(store, cols, perm):
		// Sorted by the packed radix kernel: the combined key domain fit
		// one word, so the rows moved in O(n) byte passes instead of
		// n·log n indirect comparisons.
	case asc && len(cols) == 1:
		v := store.Cols[cols[0]].I
		slices.SortFunc(perm, func(pi, pj int32) int {
			a, b := v[pi], v[pj]
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
			return int(pi) - int(pj)
		})
	case asc && len(cols) == 2:
		// Two integer keys — the (trans_id, item) shape of every SETM
		// intermediate sort — compare without the key-column loop.
		k0, k1 := store.Cols[cols[0]].I, store.Cols[cols[1]].I
		slices.SortFunc(perm, func(pi, pj int32) int {
			a, b := k0[pi], k0[pj]
			if a == b {
				a, b = k1[pi], k1[pj]
			}
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
			return int(pi) - int(pj)
		})
	case asc:
		keyCols := make([][]int64, len(cols))
		for i, c := range cols {
			keyCols[i] = store.Cols[c].I
		}
		slices.SortFunc(perm, func(pi, pj int32) int {
			for _, kc := range keyCols {
				a, b := kc[pi], kc[pj]
				if a != b {
					if a < b {
						return -1
					}
					return 1
				}
			}
			return int(pi) - int(pj)
		})
	default:
		slices.SortFunc(perm, func(pi, pj int32) int {
			if c := store.CompareRows(int(pi), store, int(pj), cols, cols, desc); c != 0 {
				return c
			}
			return int(pi) - int(pj) // stability: preserve input order on ties
		})
	}
	return perm
}

func (s *Sort) nextBatch() (*tuple.Batch, error) {
	if s.out != nil {
		return s.out.NextBatch()
	}
	if s.chunks != nil {
		if s.pos >= len(s.chunks) {
			return nil, io.EOF
		}
		s.pos++
		return s.chunks[s.pos-1], nil
	}
	if s.pos >= len(s.perm) {
		return nil, io.EOF
	}
	s.buf.Reset()
	end := min(s.pos+tuple.BatchSize, len(s.perm))
	for c := range s.buf.Cols {
		dst, src := s.buf.Cols[c].I, s.store.Cols[c].I
		for _, p := range s.perm[s.pos:end] {
			dst = append(dst, src[p])
		}
		s.buf.Cols[c].I = dst
	}
	s.buf.BumpRows(end - s.pos)
	s.pos = end
	return s.buf, nil
}

// Close drops the columnar store or, on the external path, frees the
// sorted file: a re-opened Sort sorts again on its next Open, so a file
// kept past Close would be a leak of its pages.
func (s *Sort) Close() error {
	s.chunks, s.store, s.perm = nil, nil, nil
	if s.out != nil {
		s.out.Close()
		s.out.file.Free()
		s.out = nil
	}
	return nil
}
