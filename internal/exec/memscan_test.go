package exec

import (
	"io"

	"setm/internal/tuple"
)

// MemScan streams an in-memory tuple slice: the leaf the operator tests
// build their inputs from.
type MemScan struct {
	schema *tuple.Schema
	rows   []tuple.Tuple
	pos    int
	buf    *tuple.Batch

	stats OpStats
}

// NewMemScan returns a scan over rows.
func NewMemScan(schema *tuple.Schema, rows []tuple.Tuple) *MemScan {
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
	for s.pos < len(s.rows) && s.buf.Len() < tuple.BatchSize {
		if err := s.buf.AppendTuple(s.rows[s.pos]); err != nil {
			return nil, err
		}
		s.pos++
	}
	return s.buf, nil
}
