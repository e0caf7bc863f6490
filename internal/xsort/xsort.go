// Package xsort implements external merge sort: bounded in-memory runs
// followed by a k-way merge. Sorting is the first of the two database
// primitives Algorithm SETM is built from ("the algorithm consists of a
// single loop, in which two sort operations and one merge-scan join are
// performed", Section 4.4).
//
// exec.Sort writes its sorted runs as heap files in its input's buffer
// pool and MergeFiles merges them, so page I/O counts the whole sort (the
// 2·Σ‖R_i‖ term of Section 4.3). The native miner's path is packed.go.
package xsort

import (
	"container/heap"
	"io"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// MergeFiles merges runs — one or more heap files of one schema, each
// sorted on the key columns cols, desc[i] flipping cols[i] (nil desc = all
// ascending) — into one file in that order. Ties go to the earlier run, so
// the runs of a stable sort merge stably. Each round merges consecutive
// groups of FanIn(pool.Capacity()) runs, so a merge holds no more page
// buffers than the pool has frames: one per open run's scanner plus the
// one an append encodes into.
// The runs are consumed, on every path: the file returned is all the call
// leaves in the pool.
func MergeFiles(pool *storage.Pool, runs []*hp.File, cols []int, desc []bool) (*hp.File, error) {
	fanIn := FanIn(pool.Capacity())
	for len(runs) > 1 {
		var next []*hp.File
		for len(runs) > 0 {
			group := runs[:min(fanIn, len(runs))]
			runs = runs[len(group):]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			merged, err := mergeGroup(pool, group, cols, desc)
			if err != nil {
				hp.FreeAll(next)
				hp.FreeAll(runs)
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

// mergeGroup merges runs into a fresh file and frees them either way.
func mergeGroup(pool *storage.Pool, runs []*hp.File, cols []int, desc []bool) (*hp.File, error) {
	out, err := hp.Create(pool, runs[0].Schema())
	if err == nil {
		if err = mergeInto(out, runs, cols, desc); err != nil {
			out.Free()
			out = nil
		}
	}
	hp.FreeAll(runs) // mergeInto has closed its scanners
	return out, err
}

// runHead is a run's scanner and batch; row i is the next to merge.
type runHead struct {
	sc *hp.Scanner
	b  *tuple.Batch
	i  int
}

// fileMerge is a min-heap of run indexes by head row, then run index.
type fileMerge struct {
	heads []runHead
	order []int
	cols  []int
	desc  []bool
}

func (m *fileMerge) Len() int { return len(m.order) }
func (m *fileMerge) Less(x, y int) bool {
	a, b := &m.heads[m.order[x]], &m.heads[m.order[y]]
	c := a.b.CompareRows(a.i, b.b, b.i, m.cols, m.cols, m.desc)
	return c < 0 || c == 0 && m.order[x] < m.order[y]
}
func (m *fileMerge) Swap(x, y int) { m.order[x], m.order[y] = m.order[y], m.order[x] }
func (m *fileMerge) Push(x any)    { m.order = append(m.order, x.(int)) }
func (m *fileMerge) Pop() any {
	r := m.order[len(m.order)-1]
	m.order = m.order[:len(m.order)-1]
	return r
}

// advance moves run r's head one row on, reading the run's next batch when
// the current one is used up; false means the run is exhausted.
func (m *fileMerge) advance(r int) (bool, error) {
	h := &m.heads[r]
	h.i++
	if h.i < h.b.Len() {
		return true, nil
	}
	h.b.Reset()
	h.i = 0
	_, err := h.sc.NextBatch(h.b, tuple.BatchSize)
	if err == io.EOF {
		return false, nil
	}
	return err == nil, err
}

// mergeInto appends the k-way merge of runs to out, a batch at a time.
func mergeInto(out *hp.File, runs []*hp.File, cols []int, desc []bool) error {
	m := &fileMerge{heads: make([]runHead, len(runs)), cols: cols, desc: desc}
	for r, run := range runs {
		m.heads[r] = runHead{sc: run.Scan(), b: tuple.NewBatch(run.Schema()), i: -1}
		defer m.heads[r].sc.Close()
		if ok, err := m.advance(r); err != nil {
			return err
		} else if ok {
			m.order = append(m.order, r)
		}
	}
	heap.Init(m)
	buf := tuple.NewBatch(out.Schema())
	for len(m.order) > 0 {
		h := &m.heads[m.order[0]]
		buf.AppendRow(h.b, h.i) // head batches are dense
		if buf.Len() == tuple.BatchSize {
			if err := out.AppendBatch(buf); err != nil {
				return err
			}
			buf.Reset()
		}
		if ok, err := m.advance(m.order[0]); err != nil {
			return err
		} else if ok {
			heap.Fix(m, 0)
		} else {
			heap.Pop(m)
		}
	}
	return out.AppendBatch(buf)
}
