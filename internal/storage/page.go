// Package storage provides the paged storage substrate of the engine: fixed
// 4 KB pages, page stores (in-memory or file-backed), and a buffer pool that
// accounts for page I/O, distinguishing random from sequential accesses.
//
// The accounting exists because the paper's analysis (Sections 3.2 and 4.3)
// argues in page fetches — random fetches at 20 ms for the nested-loop
// strategy, sequential accesses at 10 ms for SETM. Running both strategies
// on this substrate lets the experiments report the same quantities the
// paper reasons about.
//
// Two paths lead from the pool to the store, sharing page ids, the free
// list and the Stats. The Section 3 baseline's B+-tree updates pages in
// place, so it goes through the pool's LRU frames, a page per store call.
// Heap files and packed runs (run.go) are written once and read front to
// back, which is the access pattern the paper prices as sequential: they
// keep out of the frames and move pages between their own buffers and the
// store by the pool's uncached page I/O, one store call per contiguous
// stretch of page ids — heap files a page at a time, runs in extents of up
// to RunExtentPages pages.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed page size in bytes, matching the paper's 4 Kbyte
// assumption.
const PageSize = 4096

// PageID identifies a page within a store. IDs are dense, starting at 0.
type PageID uint32

// InvalidPage is a sentinel page ID used for "no page" links.
const InvalidPage PageID = ^PageID(0)

// Page is one fixed-size block. The layout of Data is owned by the layer
// above (heap file or B+-tree node).
type Page struct {
	ID   PageID
	Data [PageSize]byte

	dirty bool
	pin   int
}

// MarkDirty records that the page has been modified and must be written
// back when evicted.
func (p *Page) MarkDirty() { p.dirty = true }

// Dirty reports whether the page has unwritten modifications.
func (p *Page) Dirty() bool { return p.dirty }

// PutU16 writes a 16-bit little-endian value at off.
func (p *Page) PutU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.Data[off:], v) }

// U16 reads a 16-bit little-endian value at off.
func (p *Page) U16(off int) uint16 { return binary.LittleEndian.Uint16(p.Data[off:]) }

// PutU32 writes a 32-bit little-endian value at off.
func (p *Page) PutU32(off int, v uint32) { binary.LittleEndian.PutUint32(p.Data[off:], v) }

// U32 reads a 32-bit little-endian value at off.
func (p *Page) U32(off int) uint32 { return binary.LittleEndian.Uint32(p.Data[off:]) }

// PutU64 writes a 64-bit little-endian value at off.
func (p *Page) PutU64(off int, v uint64) { binary.LittleEndian.PutUint64(p.Data[off:], v) }

// U64 reads a 64-bit little-endian value at off.
func (p *Page) U64(off int) uint64 { return binary.LittleEndian.Uint64(p.Data[off:]) }

// Store is the raw page I/O interface beneath the buffer pool.
type Store interface {
	// ReadPages copies the consecutive pages starting at id into dst, a
	// whole number of pages long: one call moves a whole extent.
	ReadPages(id PageID, dst []byte) error
	// WritePages persists src, a whole number of pages long, as the
	// consecutive pages starting at id.
	WritePages(id PageID, src []byte) error
	// Allocate reserves a new page and returns its ID. It performs no I/O:
	// a page never written reads as zeros.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
}

// memChunkPages is a MemStore's allocation granularity: pages live in
// fixed 4 MB chunks so allocating never moves existing pages. A flat
// []page slice would memmove the entire store on every capacity doubling,
// which profiles as a double-digit share of write-heavy workloads.
const memChunkPages = 1024

// MemStore is an in-memory Store. It is the default substrate: the
// reproduction cares about *counting* I/O, not performing it, so pages live
// in RAM while the buffer pool still tallies every logical page access.
type MemStore struct {
	chunks []*[memChunkPages][PageSize]byte
	n      int
}

// NewMemStore returns an empty in-memory page store.
func NewMemStore() *MemStore { return &MemStore{} }

// checkExtent validates a multi-page transfer of n bytes at id against a
// store of have pages and returns the page count.
func checkExtent(op string, id PageID, n, have int) (int, error) {
	if n%PageSize != 0 {
		return 0, fmt.Errorf("storage: %s of %d bytes is not a whole number of pages", op, n)
	}
	if int(id)+n/PageSize > have {
		return 0, fmt.Errorf("storage: %s of unallocated pages %d..%d (have %d)", op, id, int(id)+n/PageSize-1, have)
	}
	return n / PageSize, nil
}

// ReadPages implements Store.
func (m *MemStore) ReadPages(id PageID, dst []byte) error {
	n, err := checkExtent("read", id, len(dst), m.n)
	for i := 0; i < n; i++ {
		pid := int(id) + i
		copy(dst[i*PageSize:], m.chunks[pid/memChunkPages][pid%memChunkPages][:])
	}
	return err
}

// WritePages implements Store.
func (m *MemStore) WritePages(id PageID, src []byte) error {
	n, err := checkExtent("write", id, len(src), m.n)
	for i := 0; i < n; i++ {
		pid := int(id) + i
		copy(m.chunks[pid/memChunkPages][pid%memChunkPages][:], src[i*PageSize:])
	}
	return err
}

// Allocate implements Store.
func (m *MemStore) Allocate() (PageID, error) {
	if m.n%memChunkPages == 0 {
		m.chunks = append(m.chunks, new([memChunkPages][PageSize]byte))
	}
	m.n++
	return PageID(m.n - 1), nil
}

// NumPages implements Store.
func (m *MemStore) NumPages() int { return m.n }
