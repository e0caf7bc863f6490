package storage

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Packed runs are the storage form of the packed-key mining engine: raw
// little-endian uint64 words packed 512 to a page, no tuple encoding, no
// per-page header. A run is an ordered page sequence plus a word count;
// whether the words are (tid, key) row pairs or a bare key column is the
// caller's contract. Runs are how the out-of-core SETM pipeline spills
// sorted row and key sequences: written once and read front to back, in
// extents that go straight between the writer's or reader's buffer and
// the store (Pool.AppendPages, Pool.readExtent) — the paper's sequential
// access — while every page still shows up in the pool's Section 4.3
// accounting and comes from, and returns to, the pool's free list.

// WordsPerPage is the number of uint64 words a run page holds.
const WordsPerPage = PageSize / 8

// PackedRow is one packed R_k row: a sign-flipped trans_id and the whole
// pattern bit-packed into one key word (item_1 in the most significant
// bits), so unsigned integer order equals (trans_id, pattern) order.
type PackedRow struct {
	Tid uint64
	Key uint64
}

// Less reports whether r orders before o by (Tid, Key).
func (r PackedRow) Less(o PackedRow) bool {
	return r.Tid < o.Tid || (r.Tid == o.Tid && r.Key < o.Key)
}

// Run is a spilled word sequence: the pages it occupies, in order, and
// the number of words written. The zero Run is empty.
type Run struct {
	pages []PageID
	words int64
}

// Words returns the number of uint64 words in the run.
func (r Run) Words() int64 { return r.words }

// Rows returns the number of PackedRow pairs in the run.
func (r Run) Rows() int64 { return r.words / 2 }

// Pages returns the page footprint of the run.
func (r Run) Pages() int { return len(r.pages) }

// Bytes returns the payload size of the run in bytes.
func (r Run) Bytes() int64 { return r.words * 8 }

// Free returns the run's pages to the pool's free list; the run must not
// be read afterwards.
func (r *Run) Free(pool *Pool) {
	pool.FreePages(r.pages)
	r.pages = nil
	r.words = 0
}

// RunWriter appends words to a fresh run. It stages them in its own
// buffer of one extent (Pool.RunExtent pages) and hands each full extent,
// and the tail at Close, to the pool in one piece; it holds no frame and
// no pin. A store error therefore surfaces at an extent boundary or at
// Close, not at the append that filled the failing page. After any error
// the writer is inert: further appends return the same error and Close
// frees the partial run.
type RunWriter struct {
	pool *Pool
	run  Run
	buf  []byte // staged words, little-endian; cap is the extent
	err  error
}

// NewRunWriter starts an empty run in pool.
func NewRunWriter(pool *Pool) *RunWriter { return &RunWriter{pool: pool} }

// room returns the bytes the staging buffer can still take (a positive
// multiple of 8), flushing a full extent first.
func (w *RunWriter) room() (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.buf == nil {
		w.buf = make([]byte, 0, w.pool.RunExtent()*PageSize)
	}
	if len(w.buf) == cap(w.buf) {
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
	return cap(w.buf) - len(w.buf), nil
}

// flush hands the staged words to the pool, zero-padded to whole pages.
func (w *RunWriter) flush() error {
	n := (len(w.buf) + PageSize - 1) / PageSize * PageSize
	clear(w.buf[len(w.buf):n])
	w.run.words += int64(len(w.buf) / 8)
	var err error
	w.run.pages, err = w.pool.AppendPages(w.run.pages, w.buf[:n])
	w.buf = w.buf[:0]
	if err != nil {
		w.err = fmt.Errorf("storage: run writer: %w", err)
	}
	return w.err
}

// Word appends one word.
func (w *RunWriter) Word(v uint64) error {
	if _, err := w.room(); err != nil {
		return err
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	return nil
}

// Row appends one (tid, key) pair.
func (w *RunWriter) Row(r PackedRow) error {
	if err := w.Word(r.Tid); err != nil {
		return err
	}
	return w.Word(r.Key)
}

// Rows appends every row of rs, encoding whole extent stretches — the
// hot path of the mining executor's spill appenders.
func (w *RunWriter) Rows(rs []PackedRow) error {
	for len(rs) > 0 {
		room, err := w.room()
		if err != nil {
			return err
		}
		n := min(len(rs), room/16)
		if n == 0 {
			// One word short of the extent (odd Word use): this row
			// straddles the boundary.
			if err := w.Row(rs[0]); err != nil {
				return err
			}
			rs = rs[1:]
			continue
		}
		at := len(w.buf)
		w.buf = w.buf[:at+16*n]
		for i, r := range rs[:n] {
			binary.LittleEndian.PutUint64(w.buf[at+16*i:], r.Tid)
			binary.LittleEndian.PutUint64(w.buf[at+16*i+8:], r.Key)
		}
		rs = rs[n:]
	}
	return nil
}

// Keys appends every word of ks, encoding whole extent stretches.
func (w *RunWriter) Keys(ks []uint64) error {
	for len(ks) > 0 {
		room, err := w.room()
		if err != nil {
			return err
		}
		n := min(len(ks), room/8)
		at := len(w.buf)
		w.buf = w.buf[:at+8*n]
		for i, k := range ks[:n] {
			binary.LittleEndian.PutUint64(w.buf[at+8*i:], k)
		}
		ks = ks[n:]
	}
	return nil
}

// Close writes the staged tail and returns the finished run. If any
// append or the tail write failed, Close frees the partial run's pages
// and returns that error.
func (w *RunWriter) Close() (Run, error) {
	if w.err == nil && len(w.buf) > 0 {
		w.flush()
	}
	w.buf = nil
	if w.err != nil {
		w.run.Free(w.pool)
		return Run{}, w.err
	}
	return w.run, nil
}

// RunReader streams a run's words front to back, reading one extent
// (Pool.RunExtent pages, fewer for a shorter run) ahead per store call
// into its own word buffer; like the writer it holds no frame and no
// pin. Word returns io.EOF after the last word; any I/O error is sticky.
// Close is idempotent and only drops the buffer.
type RunReader struct {
	pool     *Pool
	run      Run
	idx      int // next page index
	buf      []uint64
	pos      int
	consumed int64
	err      error
}

// NewRunReader opens a reader over run.
func NewRunReader(pool *Pool, run Run) *RunReader {
	return &RunReader{pool: pool, run: run}
}

// fill reads the next extent into the word buffer.
func (r *RunReader) fill() error {
	left := len(r.run.pages) - r.idx
	if r.buf == nil {
		r.buf = make([]uint64, min(r.pool.RunExtent(), left)*WordsPerPage)
	}
	n := min(cap(r.buf)/WordsPerPage, left)
	words := min(int64(n)*WordsPerPage, r.run.words-int64(r.idx)*WordsPerPage)
	r.buf, r.pos = r.buf[:words], 0
	if err := r.pool.readExtent(r.run.pages[r.idx:r.idx+n], r.buf); err != nil {
		r.buf = r.buf[:0]
		r.err = fmt.Errorf("storage: run reader: %w", err)
		return r.err
	}
	r.idx += n
	return nil
}

// Word returns the next word, or io.EOF at the end of the run.
func (r *RunReader) Word() (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.consumed >= r.run.words {
		return 0, io.EOF
	}
	if r.pos >= len(r.buf) {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	v := r.buf[r.pos]
	r.pos++
	r.consumed++
	return v, nil
}

// Block returns the next decoded stretch of the run's words, refilling
// the read-ahead buffer as needed; the slice is valid until the next
// Block/Word call and its words count as consumed. Mid-run blocks cover
// whole pages, so for row runs a (tid, key) pair never straddles two
// blocks. Returns io.EOF at the end. Block is the bulk alternative to
// Word — the mining executor's cursors and the k-way merge iterate
// blocks to shed the per-word call overhead.
func (r *RunReader) Block() ([]uint64, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.consumed >= r.run.words {
		return nil, io.EOF
	}
	if r.pos >= len(r.buf) {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	blk := r.buf[r.pos:]
	r.pos = len(r.buf)
	r.consumed += int64(len(blk))
	return blk, nil
}

// Row returns the next (tid, key) pair, or io.EOF at the end. A run with
// an odd word tail is corrupt and yields an error, never a partial row.
func (r *RunReader) Row() (PackedRow, error) {
	tid, err := r.Word()
	if err != nil {
		return PackedRow{}, err
	}
	key, err := r.Word()
	if err == io.EOF {
		err = fmt.Errorf("storage: run reader: odd word count %d in row run", r.run.words)
		r.err = err
	}
	if err != nil {
		return PackedRow{}, err
	}
	return PackedRow{Tid: tid, Key: key}, nil
}

// Close drops the reader's word buffer.
func (r *RunReader) Close() {
	r.buf = nil
}
