// Package xsort implements external merge sort over heap files: bounded
// in-memory run generation followed by a k-way merge. Sorting is the first
// of the two database primitives Algorithm SETM is built from ("the
// algorithm consists of a single loop, in which two sort operations and one
// merge-scan join are performed", Section 4.4).
//
// Runs spill to heap files in the same buffer pool as the input, so the
// page-access accounting captures the full cost of the sort, matching the
// 2·Σ‖R_i‖ term of the paper's Section 4.3 formula.
package xsort

import (
	"container/heap"
	"io"
	"sort"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// DefaultMemoryLimit bounds the bytes of tuples buffered per run when the
// caller passes a non-positive limit (4 MB — large enough that the paper's
// data sets sort in one or two runs, small enough to exercise merging in
// tests).
const DefaultMemoryLimit = 4 << 20

// Comparator orders tuples; negative means a < b.
type Comparator func(a, b tuple.Tuple) int

// Iterator is a minimal pull-based tuple stream. Next returns io.EOF at the
// end. Whoever opened the stream closes it; the sort only reads.
type Iterator interface {
	Next() (tuple.Tuple, error)
}

// Stream sorts an arbitrary tuple stream into a fresh heap file: runs of
// at most memLimit bytes are sorted in memory and written out, then
// merged. Every run is freed once merged and on every error path, so the
// one file returned is all the call leaves in the pool.
func Stream(pool *storage.Pool, schema *tuple.Schema, in Iterator, cmp Comparator, memLimit int) (*hp.File, error) {
	if memLimit <= 0 {
		memLimit = DefaultMemoryLimit
	}
	runs, err := writeRuns(pool, schema, in, cmp, memLimit)
	if err != nil {
		freeFiles(runs)
		return nil, err
	}
	return mergeRuns(pool, schema, runs, cmp)
}

// writeRuns cuts in into sorted runs of at most memLimit bytes — at least
// one, which is empty when in is. On error it returns the runs written so
// far, the failed one included, for the caller to free.
func writeRuns(pool *storage.Pool, schema *tuple.Schema, in Iterator, cmp Comparator, memLimit int) ([]*hp.File, error) {
	var runs []*hp.File
	var buf []tuple.Tuple
	bufBytes := 0
	flush := func() error {
		sort.SliceStable(buf, func(i, j int) bool { return cmp(buf[i], buf[j]) < 0 })
		run, err := hp.Create(pool, schema)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		err = run.AppendAll(buf)
		buf, bufBytes = buf[:0], 0
		return err
	}
	for {
		t, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return runs, err
		}
		buf = append(buf, t)
		bufBytes += 8 * len(t)
		if bufBytes >= memLimit {
			if err := flush(); err != nil {
				return runs, err
			}
		}
	}
	var err error
	if len(buf) > 0 || len(runs) == 0 {
		err = flush()
	}
	return runs, err
}

func freeFiles(files []*hp.File) {
	for _, f := range files {
		f.Free()
	}
}

// mergeEntry is one head-of-run element in the merge heap.
type mergeEntry struct {
	t   tuple.Tuple
	src int
}

type mergeHeap struct {
	entries []mergeEntry
	cmp     Comparator
}

func (m *mergeHeap) Len() int { return len(m.entries) }
func (m *mergeHeap) Less(i, j int) bool {
	c := m.cmp(m.entries[i].t, m.entries[j].t)
	if c != 0 {
		return c < 0
	}
	// Tie-break on run index for stability.
	return m.entries[i].src < m.entries[j].src
}
func (m *mergeHeap) Swap(i, j int)      { m.entries[i], m.entries[j] = m.entries[j], m.entries[i] }
func (m *mergeHeap) Push(x interface{}) { m.entries = append(m.entries, x.(mergeEntry)) }
func (m *mergeHeap) Pop() interface{} {
	old := m.entries
	n := len(old)
	e := old[n-1]
	m.entries = old[:n-1]
	return e
}

// mergeRuns merges sorted runs into one file, consuming them. Each round
// merges consecutive groups of FanIn(pool.Capacity()) runs, so a merge
// never pins more frames than the pool has — one per open run plus the two
// an append can hold — however many runs there are. Groups stay in run
// order and ties break on run index, so the cascade is as stable as a
// single merge.
func mergeRuns(pool *storage.Pool, schema *tuple.Schema, runs []*hp.File, cmp Comparator) (*hp.File, error) {
	fanIn := FanIn(pool.Capacity())
	for len(runs) > 1 {
		var next []*hp.File
		for len(runs) > 0 {
			n := min(fanIn, len(runs))
			merged, err := mergeGroup(pool, schema, runs[:n], cmp)
			runs = runs[n:]
			if err != nil {
				freeFiles(next)
				freeFiles(runs)
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

// mergeGroup merges runs (at most the fan-in) into a fresh file and frees
// them, whether or not it succeeds; the only run of a group is returned as
// it is.
func mergeGroup(pool *storage.Pool, schema *tuple.Schema, runs []*hp.File, cmp Comparator) (*hp.File, error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	out, err := hp.Create(pool, schema)
	if err == nil {
		err = mergeInto(out, runs, cmp)
	}
	freeFiles(runs) // mergeInto has closed its scanners: no page of a run is pinned
	if err != nil {
		if out != nil {
			out.Free()
		}
		return nil, err
	}
	return out, nil
}

// mergeInto appends the k-way merge of runs to out; ties go to the earlier
// run.
func mergeInto(out *hp.File, runs []*hp.File, cmp Comparator) error {
	scanners := make([]*hp.Scanner, len(runs))
	for i, r := range runs {
		scanners[i] = r.Scan()
	}
	defer func() {
		for _, sc := range scanners {
			sc.Close()
		}
	}()

	h := &mergeHeap{cmp: cmp}
	for i, sc := range scanners {
		t, err := sc.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.entries = append(h.entries, mergeEntry{t: t, src: i})
	}
	heap.Init(h)
	for h.Len() > 0 {
		e := heap.Pop(h).(mergeEntry)
		if err := out.Append(e.t); err != nil {
			return err
		}
		t, err := scanners[e.src].Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		heap.Push(h, mergeEntry{t: t, src: e.src})
	}
	return nil
}
