// Package heap implements append-only record files ("heap files") over the
// paged storage layer. A heap file stores rows of a fixed all-INT schema
// packed into pages; it supports appending and full sequential scans,
// which are the only access paths SETM needs for its R_k relations. Both
// move column batches (AppendBatch, Scanner.NextBatch); there is no
// row-at-a-time API.
//
// A heap file's pages are written once, except that the partial last page
// is rewritten in place as rows arrive, and read front to back. So, like
// packed runs, they take no buffer-pool frame and hold no pin: AppendBatch
// encodes each page in a buffer of its own and writes it with the pool's
// uncached page I/O (Pool.AppendPages, Pool.WritePages), and a Scanner
// reads one page at a time into its own buffer (Pool.ReadPages). Every
// page still counts in Pool.Stats.
//
// Every page starts with the same 8-byte header:
//
//	offset 0:  u32 reserved
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
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"setm/internal/storage"
	"setm/internal/tuple"
)

const (
	hdrCount = 4
	hdrSize  = 8
)

// File is a heap file: its pages in order, every one full but the last.
type File struct {
	pool    *storage.Pool
	schema  *tuple.Schema
	rowsCap int // rows per page

	pageIDs []storage.PageID
	rows    int64
	ranges  []tuple.Range // per column, a bound on every value appended
	page    []byte        // AppendBatch's page buffer, kept across calls
}

// Create makes an empty heap file with the given all-INT schema. It takes
// no page until rows are appended.
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
	f := &File{pool: pool, schema: schema, rowsCap: rowsCap, ranges: make([]tuple.Range, schema.Len())}
	f.resetRanges()
	return f, nil
}

func (f *File) resetRanges() {
	for c := range f.ranges {
		f.ranges[c] = tuple.EmptyRange
	}
}

// Ranges bounds each column over every row appended since the file was
// created or freed: the least and greatest value AppendBatch encoded
// (tuple.EmptyRange while the file is empty). A batch that failed
// part-way may have widened them, so they are bounds, not exact extents.
// The slice is the caller's.
func (f *File) Ranges() []tuple.Range { return slices.Clone(f.ranges) }

// Schema returns the schema of the file.
func (f *File) Schema() *tuple.Schema { return f.schema }

// Rows returns the number of rows appended.
func (f *File) Rows() int64 { return f.rows }

// Pages returns the number of pages the file occupies. This is the
// quantity written ‖R_k‖ in the paper's I/O analysis.
func (f *File) Pages() int { return len(f.pageIDs) }

// SizeBytes returns the storage footprint in bytes (pages × page size).
func (f *File) SizeBytes() int64 { return int64(len(f.pageIDs)) * storage.PageSize }

// slot returns the byte offset of column col's value for row r of a page.
func (f *File) slot(col, r int) int { return hdrSize + 8*(col*f.rowsCap+r) }

// encode writes the logical rows [from, from+k) of b into page after its
// first used rows and sets the page's row count.
func (f *File) encode(page []byte, b *tuple.Batch, from, used, k int) error {
	binary.LittleEndian.PutUint16(page[hdrCount:], uint16(used+k))
	return b.PutIntColumns(page[f.slot(0, used):], f.rowsCap, from, k, f.ranges)
}

// AppendBatch appends every logical row of b, in selection order. A
// partial last page is read back, filled and rewritten in place; the rest
// of the rows go onto new pages, encoded one at a time in a buffer of the
// call's own. When it fails part-way the rows of every page written stay
// appended, and a new page that could not be written is given back.
func (f *File) AppendBatch(b *tuple.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if len(b.Cols) != f.schema.Len() {
		return fmt.Errorf("heap: batch arity %d does not match schema %d", len(b.Cols), f.schema.Len())
	}
	if f.page == nil {
		f.page = make([]byte, storage.PageSize)
	}
	page := f.page
	i := 0
	if used := int(f.rows % int64(f.rowsCap)); used > 0 {
		last := f.pageIDs[len(f.pageIDs)-1:]
		k := min(n, f.rowsCap-used)
		if err := f.pool.ReadPages(last, page); err != nil {
			return err
		}
		if err := f.encode(page, b, 0, used, k); err != nil {
			return err
		}
		if err := f.pool.WritePages(last, page); err != nil {
			return err
		}
		f.rows += int64(k)
		i = k
	}
	for i < n {
		k := min(n-i, f.rowsCap)
		clear(page)
		if err := f.encode(page, b, i, 0, k); err != nil {
			return err
		}
		ids, err := f.pool.AppendPages(f.pageIDs, page)
		if err != nil {
			f.pool.FreePages(ids[len(f.pageIDs):])
			return err
		}
		f.pageIDs = ids
		f.rows += int64(k)
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
	f.rows = 0
	f.resetRanges()
}

// FreeAll frees every file in files, as Free does.
func FreeAll(files []*File) {
	for _, f := range files {
		f.Free()
	}
}

// Scanner iterates a heap file front to back over the pages and rows it
// had when the scan began, reading one page at a time into its own
// buffer. Rows appended during the scan, even onto the page being read,
// are not returned. NextBatch returns io.EOF after the final row.
type Scanner struct {
	file  *File
	pages []storage.PageID
	rows  int64  // rows when the scan began
	next  int64  // rows returned so far
	page  []byte // the page row next lies on, read when the scan enters it
}

// Scan returns a scanner positioned before the first row.
func (f *File) Scan() *Scanner {
	return &Scanner{file: f, pages: f.pageIDs, rows: f.rows, page: make([]byte, storage.PageSize)}
}

// NextBatch decodes up to max further rows directly into b's column
// vectors (appending to its current contents) and reports how many were
// added. It returns io.EOF only when the scan is exhausted and no rows
// were added.
func (s *Scanner) NextBatch(b *tuple.Batch, max int) (int, error) {
	if s.next >= s.rows {
		return 0, io.EOF
	}
	f := s.file
	if len(b.Cols) != f.schema.Len() {
		return 0, fmt.Errorf("heap: batch arity %d does not match schema %d", len(b.Cols), f.schema.Len())
	}
	added := 0
	for added < max && s.next < s.rows {
		p, r := int(s.next/int64(f.rowsCap)), int(s.next%int64(f.rowsCap))
		if r == 0 {
			if err := f.pool.ReadPages(s.pages[p:p+1], s.page); err != nil {
				return added, err
			}
		}
		k := min(f.rowsCap-r, int(s.rows-s.next), max-added)
		if err := b.AppendIntColumns(s.page[f.slot(0, r):], f.rowsCap, k); err != nil {
			return added, err
		}
		s.next += int64(k)
		added += k
	}
	return added, nil
}

// Close ends the scan and drops its page buffer; safe to call multiple
// times.
func (s *Scanner) Close() {
	s.next = s.rows
	s.page = nil
}
