// Package heap implements append-only record files ("heap files") over the
// paged storage layer. A heap file stores rows of a fixed all-INT schema
// packed into a chain of pages; it supports appending and full sequential
// scans, which are the only access paths SETM needs for its R_k relations.
// Both move column batches (AppendBatch, Scanner.NextBatch); there is no
// row-at-a-time API.
//
// Every page starts with the same 8-byte header:
//
//	offset 0:  u32 next page ID (InvalidPage at the tail)
//	offset 4:  u16 row count
//	offset 6:  u16 reserved
//
// The rows follow column-major. A page holds rowsCap = (PageSize-8)/(8·cols)
// rows; row r's value of column c is the little-endian int64 at
// hdrSize+8·(c·rowsCap+r). With no per-row length and no per-value kind
// switch, AppendBatch and NextBatch move one column of one page per loop,
// and rows per page is the paper's Section 3.2 entries-per-page arithmetic
// (costmodel.RPages: page bytes over row bytes). Create refuses a schema
// this layout cannot hold: a column that is not INT, no columns, or more
// than 511 columns (not one row a page).
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
	hdrSize  = 8
)

// File is a heap file: a linked list of column-major pages in a shared pool.
type File struct {
	pool    *storage.Pool
	schema  *tuple.Schema
	rowsCap int // rows per page

	first   storage.PageID
	last    storage.PageID
	pages   int
	rows    int64
	pageIDs []storage.PageID // every page of the chain, in order, for Free
}

// Create allocates an empty heap file with the given all-INT schema.
func Create(pool *storage.Pool, schema *tuple.Schema) (*File, error) {
	if schema.Len() == 0 {
		return nil, fmt.Errorf("heap: a table needs at least one column")
	}
	for _, c := range schema.Cols {
		if c.Kind != tuple.KindInt {
			return nil, fmt.Errorf("heap: column %q is %s; only INT columns are stored", c.Name, c.Kind)
		}
	}
	rowsCap := (storage.PageSize - hdrSize) / (8 * schema.Len())
	if rowsCap == 0 {
		return nil, fmt.Errorf("heap: a row of %d columns exceeds page capacity", schema.Len())
	}
	pg, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(pg)
	id := pg.ID
	pool.Unpin(pg)
	return &File{pool: pool, schema: schema, rowsCap: rowsCap,
		first: id, last: id, pages: 1, pageIDs: []storage.PageID{id}}, nil
}

func initPage(pg *storage.Page) {
	pg.PutU32(hdrNext, uint32(storage.InvalidPage))
	pg.PutU16(hdrCount, 0)
	pg.MarkDirty()
}

// Schema returns the schema of the file.
func (f *File) Schema() *tuple.Schema { return f.schema }

// Rows returns the number of rows appended.
func (f *File) Rows() int64 { return f.rows }

// Pages returns the number of pages the file occupies. This is the
// quantity written ‖R_k‖ in the paper's I/O analysis.
func (f *File) Pages() int { return f.pages }

// SizeBytes returns the storage footprint in bytes (pages × page size).
func (f *File) SizeBytes() int64 { return int64(f.pages) * storage.PageSize }

// slot returns the byte offset of column col's value for row r of a page.
func (f *File) slot(col, r int) int { return hdrSize + 8*(col*f.rowsCap+r) }

// tail is the pinned last page of the file during an append. count shadows
// the page header; release writes it back, which must happen before the
// page is unpinned on every path — the next append would overwrite rows a
// stale header does not cover, and an eviction drop a page never marked
// dirty.
type tail struct {
	f     *File
	pg    *storage.Page
	count int
}

func (f *File) pinTail() (tail, error) {
	pg, err := f.pool.Fetch(f.last)
	if err != nil {
		return tail{}, err
	}
	return tail{f: f, pg: pg, count: int(pg.U16(hdrCount))}, nil
}

// release writes the header back, counts the rows added and unpins the page.
func (t *tail) release() {
	t.f.rows += int64(t.count - int(t.pg.U16(hdrCount)))
	t.pg.PutU16(hdrCount, uint16(t.count))
	t.pg.MarkDirty()
	t.f.pool.Unpin(t.pg)
}

// room makes sure the tail page has a free row slot, chaining a fresh page
// when it is full. When the allocation fails the current page stays the
// tail, so the file remains consistent and appendable.
func (t *tail) room() error {
	if t.count < t.f.rowsCap {
		return nil
	}
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
	t.pg, t.count = npg, 0
	return nil
}

// AppendBatch appends every logical row of b, in selection order, encoding
// column vectors straight into page buffers. When it fails part-way the
// rows already placed stay appended.
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
	for i := 0; i < n; {
		if err := tl.room(); err != nil {
			return err
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

// FreeAll frees every file in files, as Free does.
func FreeAll(files []*File) {
	for _, f := range files {
		f.Free()
	}
}

// Scanner iterates a heap file front to back, over the pages it had when
// the scan began. NextBatch returns io.EOF after the final row.
type Scanner struct {
	file *File
	pg   *storage.Page
	idx  int
	done bool

	pageIdx int // index into file.pageIDs of the current page
	endIdx  int // page count when the scan began
}

// Scan returns a scanner positioned before the first row.
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
	return true, nil
}

// NextBatch decodes up to max further rows directly into b's column
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
		f := s.file
		k := min(count-s.idx, max-added)
		if err := b.AppendIntColumns(s.pg.Data[f.slot(0, s.idx):], f.rowsCap, k); err != nil {
			return added, err
		}
		s.idx += k
		added += k
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
