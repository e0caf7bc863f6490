package exec

import (
	"sync/atomic"

	"setm/internal/tuple"
)

// OpStats records an operator's actual output cardinality: how many rows
// and batches it produced since Open. EXPLAIN ANALYZE reads these after a
// plan has been drained to report actual-vs-estimated rows per operator.
// The counters are atomic: a plan walk may read them while another
// goroutine drains the plan, and the race detector must stay quiet.
type OpStats struct {
	batches atomic.Int64
	rows    atomic.Int64
}

// Batches returns the number of batches produced since Open.
func (st *OpStats) Batches() int64 { return st.batches.Load() }

// Rows returns the number of rows produced since Open.
func (st *OpStats) Rows() int64 { return st.rows.Load() }

// Reset zeroes the counters (operators call this from Open; OpStats
// contains atomics and must not be reset by struct assignment).
func (st *OpStats) Reset() {
	st.batches.Store(0)
	st.rows.Store(0)
}

// StatsReporter is implemented by every operator in this package; it
// exposes the operator's actual-output counters.
type StatsReporter interface {
	ExecStats() *OpStats
}

// tally counts one NextBatch result on its way out.
func (st *OpStats) tally(b *tuple.Batch, err error) (*tuple.Batch, error) {
	if err == nil {
		st.batches.Add(1)
		st.rows.Add(int64(b.Len()))
	}
	return b, err
}

// Counted NextBatch fronts for each operator: the real work happens in the
// operators' nextBatch methods; these wrappers keep the row/batch counters
// exact for every consumer, Drain included.

func (s *HeapScan) NextBatch() (*tuple.Batch, error) { return s.stats.tally(s.nextBatch()) }
func (s *HeapScan) ExecStats() *OpStats              { return &s.stats }

func (r *Rename) NextBatch() (*tuple.Batch, error) { return r.stats.tally(r.nextBatch()) }
func (r *Rename) ExecStats() *OpStats              { return &r.stats }

func (f *Filter) NextBatch() (*tuple.Batch, error) { return f.stats.tally(f.nextBatch()) }
func (f *Filter) ExecStats() *OpStats              { return &f.stats }

func (p *Project) NextBatch() (*tuple.Batch, error) { return p.stats.tally(p.nextBatch()) }
func (p *Project) ExecStats() *OpStats              { return &p.stats }

func (s *Sort) NextBatch() (*tuple.Batch, error) { return s.stats.tally(s.nextBatch()) }
func (s *Sort) ExecStats() *OpStats              { return &s.stats }

func (g *SortGroup) NextBatch() (*tuple.Batch, error) { return g.stats.tally(g.nextBatch()) }
func (g *SortGroup) ExecStats() *OpStats              { return &g.stats }

func (m *MergeJoin) NextBatch() (*tuple.Batch, error) { return m.stats.tally(m.nextBatch()) }
func (m *MergeJoin) ExecStats() *OpStats              { return &m.stats }

func (h *HashJoin) NextBatch() (*tuple.Batch, error) { return h.stats.tally(h.nextBatch()) }
func (h *HashJoin) ExecStats() *OpStats              { return &h.stats }

func (g *HashGroup) NextBatch() (*tuple.Batch, error) { return g.stats.tally(g.nextBatch()) }
func (g *HashGroup) ExecStats() *OpStats              { return &g.stats }
