// The packed sort path: byte-wise LSD radix sorts over packed (tid, key)
// rows and bare key columns, plus external sorting for both — bounded
// in-memory radix runs spilled as raw packed pages (storage.Run) and a
// cascaded k-way merge that streams the sorted sequence back out. This is
// the same two-primitive shape as the heap-file path (run generation,
// merge), with key columns replaced by a (tid, key) word pair and heap
// files replaced by raw runs moved in extents.
package xsort

import (
	"io"

	"setm/internal/storage"
)

// RadixSortU64 sorts keys in place with a stable byte-wise LSD radix
// sort, ping-ponging through tmp (len(tmp) >= len(keys)). A one-pass
// XOR scan finds the bytes that actually vary, so narrow key domains
// (the usual case: k*bitsPerItem bits) pay only the passes they need.
func RadixSortU64(keys, tmp []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var diff uint64
	for _, v := range keys {
		diff |= v ^ keys[0]
	}
	src, dst := keys, tmp[:n]
	var cnt [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		clear(cnt[:])
		for _, v := range src {
			cnt[(v>>shift)&0xff]++
		}
		pos := 0
		for b := range cnt {
			c := cnt[b]
			cnt[b] = pos
			pos += c
		}
		for _, v := range src {
			b := (v >> shift) & 0xff
			dst[cnt[b]] = v
			cnt[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// RadixSortRows sorts rows in place by (Tid, Key) with a stable LSD
// radix sort: key bytes first (the minor sort key), then tid bytes.
// tmp must satisfy len(tmp) >= len(rows).
func RadixSortRows(rows, tmp []storage.PackedRow) {
	n := len(rows)
	if n < 2 {
		return
	}
	var kdiff, tdiff uint64
	for _, r := range rows {
		kdiff |= r.Key ^ rows[0].Key
		tdiff |= r.Tid ^ rows[0].Tid
	}
	src, dst := rows, tmp[:n]
	var cnt [256]int
	pass := func(byTid bool, shift uint) {
		clear(cnt[:])
		if byTid {
			for _, r := range src {
				cnt[(r.Tid>>shift)&0xff]++
			}
		} else {
			for _, r := range src {
				cnt[(r.Key>>shift)&0xff]++
			}
		}
		pos := 0
		for b := range cnt {
			c := cnt[b]
			cnt[b] = pos
			pos += c
		}
		if byTid {
			for _, r := range src {
				b := (r.Tid >> shift) & 0xff
				dst[cnt[b]] = r
				cnt[b]++
			}
		} else {
			for _, r := range src {
				b := (r.Key >> shift) & 0xff
				dst[cnt[b]] = r
				cnt[b]++
			}
		}
		src, dst = dst, src
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (kdiff>>shift)&0xff != 0 {
			pass(false, shift)
		}
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (tdiff>>shift)&0xff != 0 {
			pass(true, shift)
		}
	}
	if &src[0] != &rows[0] {
		copy(rows, src)
	}
}

// SpillRows writes rows (already in the caller's order) as one packed
// run: two words per row, sequential pages, no tuple encoding.
func SpillRows(pool *storage.Pool, rows []storage.PackedRow) (storage.Run, error) {
	w := storage.NewRunWriter(pool)
	if err := w.Rows(rows); err != nil {
		w.Close()
		return storage.Run{}, err
	}
	return w.Close()
}

// SpillKeys writes a key column (already in the caller's order) as one
// packed run: one word per key.
func SpillKeys(pool *storage.Pool, keys []uint64) (storage.Run, error) {
	w := storage.NewRunWriter(pool)
	if err := w.Keys(keys); err != nil {
		w.Close()
		return storage.Run{}, err
	}
	return w.Close()
}

// FanIn returns the default merge fan-in for a pool of the given frame
// capacity. Runs no longer pass through the pool's frames: what an open
// run costs is its reader's own buffer (Pool.RunExtent pages), so the
// fan-in is bounded by buffers, not frames, and poolFrames-2 (never below
// 2) only keeps an unbudgeted merge's buffers in proportion to the pool
// its owner sized. Budget-bounded callers additionally cap the fan-in by
// their memory share over that buffer.
func FanIn(poolFrames int) int {
	f := poolFrames - 2
	if f < 2 {
		f = 2
	}
	return f
}

// MergeRows streams the k-way merge of sorted row runs (ordered by
// (Tid, Key)) to emit, cascading through intermediate runs when
// len(runs) exceeds fanIn so no more than fanIn read buffers and one
// write buffer are held at once. The input runs are consumed: their pages are freed as merging
// completes (also on error). Ties are broken by run index, so the merge
// is stable with respect to the run order.
func MergeRows(pool *storage.Pool, runs []storage.Run, fanIn int, emit func(storage.PackedRow) error) error {
	return mergePacked(pool, runs, fanIn, 2, func(w [2]uint64) error {
		return emit(storage.PackedRow{Tid: w[0], Key: w[1]})
	})
}

// MergeKeys streams the k-way merge of ascending key runs to emit, with
// the same cascading, consumption, and stability contract as MergeRows.
func MergeKeys(pool *storage.Pool, runs []storage.Run, fanIn int, emit func(uint64) error) error {
	return mergePacked(pool, runs, fanIn, 1, func(w [2]uint64) error {
		return emit(w[0])
	})
}

// mergePacked is the shared merge engine: width is the words per element
// (1 = bare key, 2 = (tid, key) row), compared as (word0, word1). Each
// cascade round partitions the runs into consecutive groups of fanIn and
// merges them one after another into intermediate runs, so at most fanIn
// readers' and one writer's extent buffers are held at once; the final
// merge (the one that calls emit) takes whatever is left.
func mergePacked(pool *storage.Pool, runs []storage.Run, fanIn, width int, emit func([2]uint64) error) error {
	if fanIn < 2 {
		fanIn = 2
	}
	for len(runs) > fanIn {
		// Full groups merge this round; a short tail rides along unmerged.
		var out []storage.Run
		rest := runs
		for len(rest) > fanIn {
			group := rest[:fanIn]
			rest = rest[fanIn:]
			w := storage.NewRunWriter(pool)
			err := mergeOnce(pool, group, width, func(words [2]uint64) error {
				for i := 0; i < width; i++ {
					if err := w.Word(words[i]); err != nil {
						return err
					}
				}
				return nil
			})
			merged, cerr := w.Close()
			if err == nil {
				err = cerr
			}
			if err != nil {
				// The group's inputs were freed by mergeOnce; release its
				// partial output, the earlier groups' and everything unmerged.
				merged.Free(pool)
				freeRuns(pool, out)
				freeRuns(pool, rest)
				return err
			}
			out = append(out, merged)
		}
		runs = append(out, rest...)
	}
	return mergeOnce(pool, runs, width, emit)
}

// mergeEl is one run head in the merge loop's min-heap.
type mergeEl struct {
	words [2]uint64
	src   int
}

func elLess(a, b mergeEl) bool {
	if a.words[0] != b.words[0] {
		return a.words[0] < b.words[0]
	}
	if a.words[1] != b.words[1] {
		return a.words[1] < b.words[1]
	}
	return a.src < b.src
}

// mergeOnce merges up to fan-in runs in one pass, freeing each input run
// once the merge is done with it. All readers are closed on every path.
// Run heads are pulled block-wise (RunReader.Block), so the inner loop
// never pays a per-word call: mid-run blocks cover whole pages, which
// keeps width-2 elements from straddling block boundaries.
func mergeOnce(pool *storage.Pool, runs []storage.Run, width int, emit func([2]uint64) error) (err error) {
	readers := make([]*storage.RunReader, len(runs))
	for i := range runs {
		readers[i] = storage.NewRunReader(pool, runs[i])
	}
	defer func() {
		for _, rd := range readers {
			rd.Close()
		}
		freeRuns(pool, runs)
	}()

	type head struct {
		blk []uint64
		pos int
	}
	heads := make([]head, len(runs))
	next := func(i int) (mergeEl, bool, error) {
		var el mergeEl
		el.src = i
		h := &heads[i]
		if h.pos >= len(h.blk) {
			blk, err := readers[i].Block()
			if err == io.EOF {
				return el, false, nil
			}
			if err != nil {
				return el, false, err
			}
			h.blk, h.pos = blk, 0
		}
		if h.pos+width > len(h.blk) {
			return el, false, io.ErrUnexpectedEOF
		}
		el.words[0] = h.blk[h.pos]
		if width == 2 {
			el.words[1] = h.blk[h.pos+1]
		}
		h.pos += width
		return el, true, nil
	}

	// Slice-backed binary min-heap over the run heads.
	var h []mergeEl
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !elLess(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	down := func(i int) {
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(h) && elLess(h[l], h[m]) {
				m = l
			}
			if r < len(h) && elLess(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}

	for i := range readers {
		el, ok, err := next(i)
		if err != nil {
			return err
		}
		if ok {
			h = append(h, el)
			up(len(h) - 1)
		}
	}
	for len(h) > 0 {
		top := h[0]
		if err := emit(top.words); err != nil {
			return err
		}
		el, ok, err := next(top.src)
		if err != nil {
			return err
		}
		if ok {
			h[0] = el
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			down(0)
		}
	}
	return nil
}

// freeRuns returns every run's pages to the pool.
func freeRuns(pool *storage.Pool, runs []storage.Run) {
	for i := range runs {
		runs[i].Free(pool)
	}
}
