package exec

import (
	"io"

	"setm/internal/tuple"
)

// AggKind enumerates supported aggregate functions.
type AggKind int

const (
	// AggCount is COUNT(*).
	AggCount AggKind = iota
	// AggSum is SUM(col).
	AggSum
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

// AggSpec describes one aggregate output column.
type AggSpec struct {
	Kind AggKind
	Col  int    // input column for SUM/MIN/MAX; ignored for COUNT
	Name string // output column name
}

// SortGroup implements sort-based grouping: the input must arrive sorted on
// the group-by columns so each group is a contiguous run. This is exactly
// how SETM generates its C_k count relations — "generating the counts
// involves a simple sequential scan over R'_k" (Section 4.4). The batch
// implementation detects run boundaries with column-vector comparisons and
// emits whole batches of (group, aggregates) rows.
//
// The output preserves the input's group order, so a stream sorted on the
// group columns yields output sorted the same way.
type SortGroup struct {
	child     Operator
	groupCols []int
	aggs      []AggSpec
	schema    *tuple.Schema

	// Global marks a grand aggregate (no GROUP BY): an empty input then
	// yields one row of zero aggregates, as SQL requires for COUNT(*).
	Global bool

	lb     *tuple.Batch
	li     int
	srcEOF bool

	haveCur bool
	curKey  []int64
	count   int64
	sums    []int64
	mins    []int64
	maxs    []int64

	emitted bool
	done    bool
	out     *tuple.Batch

	stats OpStats
}

// NewSortGroup groups a sorted child on groupCols, computing aggs.
func NewSortGroup(child Operator, groupCols []int, aggs []AggSpec) *SortGroup {
	in := child.Schema()
	cols := make([]tuple.Column, 0, len(groupCols)+len(aggs))
	for _, gc := range groupCols {
		cols = append(cols, in.Cols[gc])
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = "agg"
		}
		cols = append(cols, tuple.Column{Name: name, Kind: tuple.KindInt})
	}
	return &SortGroup{
		child:     child,
		groupCols: groupCols,
		aggs:      aggs,
		schema:    tuple.NewSchema(cols...),
	}
}

func (g *SortGroup) Schema() *tuple.Schema { return g.schema }

func (g *SortGroup) Open() error {
	g.stats.Reset()
	g.lb, g.li = nil, 0
	g.srcEOF = false
	g.haveCur = false
	g.emitted = false
	g.done = false
	if g.curKey == nil {
		g.curKey = make([]int64, len(g.groupCols))
		g.sums = make([]int64, len(g.aggs))
		g.mins = make([]int64, len(g.aggs))
		g.maxs = make([]int64, len(g.aggs))
	}
	return g.child.Open()
}

func (g *SortGroup) Close() error { return g.child.Close() }

// keyMatchesCur reports whether logical row i of b has the current group
// key.
func (g *SortGroup) keyMatchesCur(b *tuple.Batch, i int) bool {
	phys := b.RowIdx(i)
	for k, gc := range g.groupCols {
		if b.Cols[gc].I[phys] != g.curKey[k] {
			return false
		}
	}
	return true
}

// startGroup begins a new group at logical row i of b.
func (g *SortGroup) startGroup(b *tuple.Batch, i int) {
	phys := b.RowIdx(i)
	for k, gc := range g.groupCols {
		g.curKey[k] = b.Cols[gc].I[phys]
	}
	g.count = 0
	g.haveCur = true
}

// accumulate folds logical row i of b into the current group.
func (g *SortGroup) accumulate(b *tuple.Batch, i int) {
	g.count++
	phys := b.RowIdx(i)
	for ai, a := range g.aggs {
		switch a.Kind {
		case AggCount:
			// count handled globally
		case AggSum, AggMin, AggMax:
			v := b.Cols[a.Col].I[phys]
			if g.count == 1 {
				g.sums[ai], g.mins[ai], g.maxs[ai] = v, v, v
			} else {
				g.sums[ai] += v
				if v < g.mins[ai] {
					g.mins[ai] = v
				}
				if v > g.maxs[ai] {
					g.maxs[ai] = v
				}
			}
		}
	}
}

// flushGroup appends the finished current group to out.
func (g *SortGroup) flushGroup(out *tuple.Batch) {
	for k := range g.groupCols {
		out.Cols[k].I = append(out.Cols[k].I, g.curKey[k])
	}
	base := len(g.groupCols)
	for ai, a := range g.aggs {
		var v int64
		switch a.Kind {
		case AggCount:
			v = g.count
		case AggSum:
			v = g.sums[ai]
		case AggMin:
			v = g.mins[ai]
		case AggMax:
			v = g.maxs[ai]
		}
		out.Cols[base+ai].I = append(out.Cols[base+ai].I, v)
	}
	out.BumpRow()
	g.emitted = true
	g.haveCur = false
}

func (g *SortGroup) nextBatch() (*tuple.Batch, error) {
	if g.done {
		return nil, io.EOF
	}
	if g.out == nil {
		g.out = tuple.NewBatch(g.schema)
	}
	g.out.Reset()
	for g.out.Len() < tuple.BatchSize {
		// Ensure an input row.
		for !g.srcEOF && (g.lb == nil || g.li >= g.lb.Len()) {
			b, err := g.child.NextBatch()
			if err == io.EOF {
				g.srcEOF = true
				break
			}
			if err != nil {
				return nil, err
			}
			g.lb, g.li = b, 0
		}
		if g.srcEOF {
			if g.haveCur {
				g.flushGroup(g.out)
			}
			g.done = true
			if g.Global && !g.emitted && len(g.groupCols) == 0 {
				// Grand aggregate over zero rows: one row of zero values.
				for c := range g.out.Cols {
					g.out.Cols[c].I = append(g.out.Cols[c].I, 0)
				}
				g.out.BumpRow()
				g.emitted = true
			}
			break
		}
		if g.haveCur && !g.keyMatchesCur(g.lb, g.li) {
			g.flushGroup(g.out)
			continue // re-check output capacity before starting the next group
		}
		if !g.haveCur {
			g.startGroup(g.lb, g.li)
		}
		g.accumulate(g.lb, g.li)
		g.li++
	}
	if g.out.Len() == 0 {
		return nil, io.EOF
	}
	return g.out, nil
}
