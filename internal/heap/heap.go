// Package heap implements append-only record files ("heap files") over the
// paged storage layer. A heap file stores tuples of a fixed schema packed
// into a chain of pages; it supports appending and full sequential scans,
// which are the only access paths SETM needs for its R_k relations.
//
// Every page starts with the same 8-byte header:
//
//	offset 0:  u32 next page ID (InvalidPage at the tail)
//	offset 4:  u16 row count
//	offset 6:  u16 free offset (record layout only)
//
// What follows depends on the schema and on nothing else; Create picks the
// layout and no caller can ask for the other:
//
//   - All columns INT (every relation SETM mines: SALES, R_k, R'_k, C_k):
//     column-major. A page holds rowsCap = (PageSize-8)/(8·cols) rows; row r's
//     value of column c is the little-endian int64 at hdrSize+8·(c·rowsCap+r).
//     With no per-row length and no per-value kind switch, AppendBatch and
//     NextBatch move one column of one page per loop, and rows per page is
//     the paper's Section 3.2 entries-per-page arithmetic (costmodel.RPages:
//     page bytes over row bytes), which the record layout's 2-byte prefix
//     used to miss.
//   - Any string column: records in the tuple codec (tuple.Encode), each
//     prefixed by a u16 length, packed from offset 8 up to the free offset.
package heap

import (
	"fmt"
	"io"

	"setm/internal/storage"
	"setm/internal/tuple"
)

const (
	hdrNext  = 0
	hdrCount = 4
	hdrFree  = 6
	hdrSize  = 8
)

// File is a heap file: a linked list of record pages in a shared pool.
type File struct {
	pool   *storage.Pool
	schema *tuple.Schema
	// rowsCap > 0 selects the column-major layout and is its rows per page;
	// 0 selects the record layout.
	rowsCap int

	first   storage.PageID
	last    storage.PageID
	pages   int
	rows    int64
	pageIDs []storage.PageID // every page of the chain, in order, for Free
}

// Create allocates an empty heap file with the given tuple schema.
func Create(pool *storage.Pool, schema *tuple.Schema) (*File, error) {
	pg, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(pg)
	id := pg.ID
	pool.Unpin(pg)
	return &File{pool: pool, schema: schema, rowsCap: intRowsPerPage(schema),
		first: id, last: id, pages: 1, pageIDs: []storage.PageID{id}}, nil
}

// intRowsPerPage returns the column-major rows per page of an all-INT
// schema and 0 for any other. An all-INT schema too wide for one row a page
// also gets 0: in the record layout its rows fail the capacity check, so
// appends are refused with the error they always were.
func intRowsPerPage(s *tuple.Schema) int {
	if s.Len() == 0 {
		return 0
	}
	for _, c := range s.Cols {
		if c.Kind != tuple.KindInt {
			return 0
		}
	}
	return (storage.PageSize - hdrSize) / (8 * s.Len())
}

func initPage(pg *storage.Page) {
	pg.PutU32(hdrNext, uint32(storage.InvalidPage))
	pg.PutU16(hdrCount, 0)
	pg.PutU16(hdrFree, hdrSize)
	pg.MarkDirty()
}

// Schema returns the tuple schema of the file.
func (f *File) Schema() *tuple.Schema { return f.schema }

// Rows returns the number of tuples appended.
func (f *File) Rows() int64 { return f.rows }

// Pages returns the number of pages the file occupies. This is the
// quantity written ‖R_k‖ in the paper's I/O analysis.
func (f *File) Pages() int { return f.pages }

// SizeBytes returns the storage footprint in bytes (pages × page size).
func (f *File) SizeBytes() int64 { return int64(f.pages) * storage.PageSize }

// slot returns the byte offset of column col's value for row r of a
// column-major page.
func (f *File) slot(col, r int) int { return hdrSize + 8*(col*f.rowsCap+r) }

// tail is the pinned last page of the file during an append. count and free
// shadow the page header; release writes them back, which must happen before
// the page is unpinned on every path — the next append would overwrite rows
// a stale header does not cover, and an eviction drop a page never marked
// dirty.
type tail struct {
	f           *File
	pg          *storage.Page
	count, free int
}

func (f *File) pinTail() (tail, error) {
	pg, err := f.pool.Fetch(f.last)
	if err != nil {
		return tail{}, err
	}
	return tail{f: f, pg: pg, count: int(pg.U16(hdrCount)), free: int(pg.U16(hdrFree))}, nil
}

// release writes the header back, counts the rows added and unpins the page.
func (t *tail) release() {
	t.f.rows += int64(t.count - int(t.pg.U16(hdrCount)))
	t.pg.PutU16(hdrCount, uint16(t.count))
	t.pg.PutU16(hdrFree, uint16(t.free))
	t.pg.MarkDirty()
	t.f.pool.Unpin(t.pg)
}

// chain makes a fresh page the tail. When the allocation fails the current
// page stays the tail, so the file remains consistent and appendable.
func (t *tail) chain() error {
	npg, err := t.f.pool.Allocate()
	if err != nil {
		return err
	}
	initPage(npg)
	t.pg.PutU32(hdrNext, uint32(npg.ID))
	t.release()
	t.f.last = npg.ID
	t.f.pages++
	t.f.pageIDs = append(t.f.pageIDs, npg.ID)
	t.pg, t.count, t.free = npg, 0, hdrSize
	return nil
}

// Append adds one tuple at the end of the file.
func (f *File) Append(t tuple.Tuple) error {
	if len(t) != f.schema.Len() {
		return fmt.Errorf("heap: append arity %d does not match schema %d", len(t), f.schema.Len())
	}
	for i, c := range f.schema.Cols {
		if t[i].Kind != c.Kind {
			return fmt.Errorf("heap: column %q kind %s got %s", c.Name, c.Kind, t[i].Kind)
		}
	}
	tl, err := f.pinTail()
	if err != nil {
		return err
	}
	defer tl.release()
	if f.rowsCap > 0 {
		if tl.count == f.rowsCap {
			if err := tl.chain(); err != nil {
				return err
			}
		}
		for c, v := range t {
			tl.pg.PutU64(f.slot(c, tl.count), uint64(v.Int))
		}
		tl.count++
		return nil
	}
	need := tuple.EncodedSize(f.schema, t) + 2
	if need > storage.PageSize-hdrSize {
		return fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", need)
	}
	if tl.free+need > storage.PageSize {
		if err := tl.chain(); err != nil {
			return err
		}
	}
	// need fits the page, so Encode writes in place.
	if _, err := tuple.Encode(tl.pg.Data[tl.free+2:tl.free+2], f.schema, t); err != nil {
		return err
	}
	tl.pg.PutU16(tl.free, uint16(need-2))
	tl.free += need
	tl.count++
	return nil
}

// AppendAll appends every tuple in ts.
func (f *File) AppendAll(ts []tuple.Tuple) error {
	for _, t := range ts {
		if err := f.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch appends every logical row of b, encoding column vectors
// straight into page buffers — the bulk path of the vectorized executor,
// which skips the per-row tuple materialization of Append. When it fails
// part-way the rows already placed stay appended.
func (f *File) AppendBatch(b *tuple.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if len(b.Cols) != f.schema.Len() {
		return fmt.Errorf("heap: batch arity %d does not match schema %d", len(b.Cols), f.schema.Len())
	}
	tl, err := f.pinTail()
	if err != nil {
		return err
	}
	defer tl.release()
	if f.rowsCap > 0 {
		for i := 0; i < n; {
			if tl.count == f.rowsCap {
				if err := tl.chain(); err != nil {
					return err
				}
			}
			k := min(n-i, f.rowsCap-tl.count)
			if err := b.PutIntColumns(tl.pg.Data[f.slot(0, tl.count):], f.rowsCap, i, k); err != nil {
				return err
			}
			tl.count += k
			i += k
		}
		return nil
	}
	for i := 0; i < n; i++ {
		need := b.EncodedRowSize(i) + 2
		if need > storage.PageSize-hdrSize {
			return fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", need)
		}
		if tl.free+need > storage.PageSize {
			if err := tl.chain(); err != nil {
				return err
			}
		}
		b.EncodeRowTo(tl.pg.Data[tl.free+2:tl.free+2], i)
		tl.pg.PutU16(tl.free, uint16(need-2))
		tl.free += need
		tl.count++
	}
	return nil
}

// Free returns every page of the file to the pool's free list. The caller
// must guarantee no scanner or operator still references the file —
// recycled pages would be decoded as foreign rows. The engine satisfies
// this by executing statements one at a time: Free runs only from DROP
// TABLE / DELETE FROM / table replacement, never with a query in flight.
// Freeing keeps dropped intermediates from growing the store without
// bound.
func (f *File) Free() {
	f.pool.FreePages(f.pageIDs)
	f.pageIDs = nil
	f.pages = 0
	f.rows = 0
}

// Scanner iterates a heap file front to back, over the pages it had when
// the scan began. Next returns io.EOF after the final tuple.
type Scanner struct {
	file *File
	pg   *storage.Page
	idx  int
	off  int
	done bool

	pageIdx int // index into file.pageIDs of the current page
	endIdx  int // page count when the scan began
}

// Scan returns a scanner positioned before the first tuple.
func (f *File) Scan() *Scanner { return &Scanner{file: f, endIdx: len(f.pageIDs)} }

// advance pins the next page, releasing the current one. Returns false
// when the pages are exhausted (done is set).
func (s *Scanner) advance() (bool, error) {
	if s.pg != nil {
		s.file.pool.Unpin(s.pg)
		s.pg = nil
		s.pageIdx++
	}
	if s.pageIdx >= s.endIdx {
		s.done = true
		return false, nil
	}
	pg, err := s.file.pool.Fetch(s.file.pageIDs[s.pageIdx])
	if err != nil {
		s.done = true
		return false, err
	}
	s.pg = pg
	s.idx = 0
	s.off = hdrSize
	return true, nil
}

// Next returns the next tuple, or io.EOF when exhausted.
func (s *Scanner) Next() (tuple.Tuple, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		if s.pg == nil {
			ok, err := s.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, io.EOF
			}
		}
		if s.idx < int(s.pg.U16(hdrCount)) {
			if f := s.file; f.rowsCap > 0 {
				t := make(tuple.Tuple, f.schema.Len())
				for c := range t {
					t[c] = tuple.I(int64(s.pg.U64(f.slot(c, s.idx))))
				}
				s.idx++
				return t, nil
			}
			n := int(s.pg.U16(s.off))
			rec := s.pg.Data[s.off+2 : s.off+2+n]
			t, _, err := tuple.Decode(rec, s.file.schema)
			if err != nil {
				return nil, err
			}
			s.off += 2 + n
			s.idx++
			return t, nil
		}
		if ok, err := s.advance(); err != nil {
			return nil, err
		} else if !ok {
			return nil, io.EOF
		}
	}
}

// NextBatch decodes up to max further tuples directly into b's column
// vectors (appending to its current contents) and reports how many were
// added. It returns io.EOF only when the file is exhausted and no rows
// were added.
func (s *Scanner) NextBatch(b *tuple.Batch, max int) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	if len(b.Cols) != s.file.schema.Len() {
		return 0, fmt.Errorf("heap: batch arity %d does not match schema %d", len(b.Cols), s.file.schema.Len())
	}
	added := 0
	for added < max {
		if s.pg == nil {
			ok, err := s.advance()
			if err != nil {
				return added, err
			}
			if !ok {
				if added == 0 {
					return 0, io.EOF
				}
				return added, nil
			}
		}
		count := int(s.pg.U16(hdrCount))
		if f := s.file; f.rowsCap > 0 {
			k := min(count-s.idx, max-added)
			if err := b.AppendIntColumns(s.pg.Data[f.slot(0, s.idx):], f.rowsCap, k); err != nil {
				return added, err
			}
			s.idx += k
			added += k
		} else {
			for s.idx < count && added < max {
				n := int(s.pg.U16(s.off))
				rec := s.pg.Data[s.off+2 : s.off+2+n]
				if _, err := b.AppendEncoded(rec); err != nil {
					return added, err
				}
				s.off += 2 + n
				s.idx++
				added++
			}
		}
		if s.idx < count {
			return added, nil // batch full mid-page
		}
		if ok, err := s.advance(); err != nil {
			return added, err
		} else if !ok {
			if added == 0 {
				return 0, io.EOF
			}
			return added, nil
		}
	}
	return added, nil
}

// Close releases any pinned page; safe to call multiple times.
func (s *Scanner) Close() {
	if s.pg != nil {
		s.file.pool.Unpin(s.pg)
		s.pg = nil
	}
	s.done = true
}

// ReadAll scans the whole file into memory; intended for tests and small
// relations such as the C_k count tables.
func (f *File) ReadAll() ([]tuple.Tuple, error) {
	sc := f.Scan()
	defer sc.Close()
	var out []tuple.Tuple
	for {
		t, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}
