package exec

import (
	"io"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// MemScan streams in-memory rows: the leaf the operator tests build their
// inputs from, and through heapFile their heap files.
type MemScan struct {
	schema *tuple.Schema
	rows   [][]int64
	pos    int
	buf    *tuple.Batch

	stats OpStats
}

// NewMemScan returns a scan over rows.
func NewMemScan(schema *tuple.Schema, rows [][]int64) *MemScan {
	return &MemScan{schema: schema, rows: rows}
}

func (s *MemScan) Schema() *tuple.Schema { return s.schema }
func (s *MemScan) Open() error           { s.stats.Reset(); s.pos = 0; return nil }
func (s *MemScan) Close() error          { return nil }

func (s *MemScan) NextBatch() (*tuple.Batch, error) { return s.stats.tally(s.nextBatch()) }
func (s *MemScan) ExecStats() *OpStats              { return &s.stats }

func (s *MemScan) nextBatch() (*tuple.Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	if s.buf == nil {
		s.buf = tuple.NewBatch(s.schema)
	}
	s.buf.Reset()
	for ; s.pos < len(s.rows) && s.buf.Len() < tuple.BatchSize; s.pos++ {
		for c, v := range s.rows[s.pos] {
			s.buf.Cols[c].I = append(s.buf.Cols[c].I, v)
		}
		s.buf.BumpRow()
	}
	return s.buf, nil
}

// heapFile writes rows into a fresh heap file in pool (a pool of its own
// when nil), one MemScan batch at a time.
func heapFile(t testing.TB, pool *storage.Pool, schema *tuple.Schema, rows [][]int64) *hp.File {
	t.Helper()
	if pool == nil {
		pool = storage.NewPool(storage.NewMemStore(), 64)
	}
	f, err := hp.Create(pool, schema)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := DrainBatches(NewMemScan(schema, rows))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := f.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return f
}
