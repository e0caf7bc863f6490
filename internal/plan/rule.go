// Rule-based physical planning. The compiler estimates cardinalities from
// catalog row counts and picks each physical operator from the shape of
// its inputs, as the paper's Figure-4 statements fix it: a merge-scan
// join when both inputs are ordered on the keys (R_{k-1} ⋈ SALES on
// trans_id), else a hash join when the build side fits the memory budget
// (R'_k ⋈ C_k), else sorts and a merge; a grouped scan over an input
// already ordered on the group columns, else a hash aggregate when the
// estimated groups fit, else a sort and the grouped scan. A sort spills
// when its input outgrows the budget. Every choice surfaces in EXPLAIN as
// a per-operator note naming the rule that fired.
package plan

import (
	"fmt"
	"slices"

	"setm/internal/costmodel"
	"setm/internal/exec"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// DefaultMemBudget bounds the planner's in-memory working set per sort or
// hash build; a larger sort spills, and a larger build side is sorted and
// merge-scanned instead.
const DefaultMemBudget = 256 << 20

// Estimate is the planner's guess for one operator's output.
type Estimate struct {
	// Rows is the estimated output cardinality.
	Rows int64
	// RowBytes is the estimated encoded size of one row.
	RowBytes int64
}

// Bytes returns the estimated relation footprint.
func (e Estimate) Bytes() int64 { return e.Rows * e.RowBytes }

// node is a partially built plan: an operator, its estimate, the column
// indexes (of the operator's output schema) the stream is known to be
// ordered by, and a bound on each output column's values.
type node struct {
	op       exec.Operator
	est      Estimate
	ordering []int
	ranges   []tuple.Range
}

// Plan is a compiled SELECT with its planning metadata.
type Plan struct {
	Root exec.Operator
	// Ordering lists output columns the result stream is sorted by.
	Ordering []int
	// Est is the root estimate (rows and row bytes).
	Est Estimate
	// notes maps operators to EXPLAIN annotations.
	notes map[exec.Operator]string
	// ests maps operators to their estimated output rows, for EXPLAIN
	// ANALYZE's actual-vs-estimated report.
	ests map[exec.Operator]int64
}

// Note returns the planner's annotation for op (empty when none), in the
// form exec.ExplainAnnotated expects.
func (p *Plan) Note(op exec.Operator) string { return p.notes[op] }

// Explain renders the plan with the planner's annotations.
func (p *Plan) Explain() string { return exec.ExplainAnnotated(p.Root, p.Note) }

// note records an EXPLAIN annotation for op.
func (c *Compiler) note(op exec.Operator, format string, args ...interface{}) {
	if c.notes == nil {
		c.notes = make(map[exec.Operator]string)
	}
	c.notes[op] = fmt.Sprintf(format, args...)
}

// noteAppend adds to an operator's annotation without clobbering one
// recorded earlier (e.g. a filter's selectivity note).
func (c *Compiler) noteAppend(op exec.Operator, format string, args ...interface{}) {
	s := fmt.Sprintf(format, args...)
	if prev, ok := c.notes[op]; ok && prev != "" {
		s = prev + "; " + s
	}
	c.note(op, "%s", s)
}

// memBudget returns the configured in-memory working-set bound.
func (c *Compiler) memBudget() int64 {
	if c.MemBudget > 0 {
		return c.MemBudget
	}
	return DefaultMemBudget
}

// setEst records op's estimated output rows for EXPLAIN ANALYZE.
func (c *Compiler) setEst(op exec.Operator, rows int64) {
	if c.ests == nil {
		c.ests = make(map[exec.Operator]int64)
	}
	c.ests[op] = rows
}

// schemaRowBytes is the stored bytes of one row over the concatenation of
// the given schemas: 8 per integer column, as in the heap file's
// column-major pages and the sort's unboxed working set.
func schemaRowBytes(schemas ...*tuple.Schema) int64 {
	var n int64
	for _, s := range schemas {
		n += 8 * int64(s.Len())
	}
	return n
}

// orderingHasPrefix reports whether keys form a prefix of ordering — the
// condition under which a stream ordered by `ordering` needs no sort on
// `keys` (equal key groups are contiguous and ascending).
func orderingHasPrefix(ordering, keys []int) bool {
	if len(keys) == 0 || len(ordering) < len(keys) {
		return len(keys) == 0
	}
	for i, k := range keys {
		if ordering[i] != k {
			return false
		}
	}
	return true
}

// remapOrdering translates an ordering through a column projection: for
// each ordered column, in order, find its output position; the ordering is
// cut at the first column the projection drops.
func remapOrdering(ordering, projIdxs []int) []int {
	var out []int
	for _, oc := range ordering {
		pos := -1
		for pi, ix := range projIdxs {
			if ix == oc {
				pos = pi
				break
			}
		}
		if pos < 0 {
			break
		}
		out = append(out, pos)
	}
	return out
}

// sortNode wraps n in a sort on keys — external when its estimated bytes
// exceed the budget — or returns it unchanged (with an EXPLAIN note) when
// the known ordering already covers the keys.
func (c *Compiler) sortNode(n node, keys []exec.SortKey, why string) node {
	allAsc := true
	cols := make([]int, len(keys))
	for i, k := range keys {
		cols[i] = k.Col
		if k.Desc {
			allAsc = false
		}
	}
	if allAsc && orderingHasPrefix(n.ordering, cols) {
		c.noteAppend(n.op, "sort for %s skipped: input already ordered on %v", why, cols)
		return n
	}
	sortBytes := n.est.Bytes()
	external := c.pool != nil && sortBytes > c.memBudget()
	var pool = c.pool
	if !external {
		pool = nil
	}
	// An external sort builds its runs in the working set the budget allows
	// (never below one page); in memory the run size is unused.
	op := exec.NewSortKeys(n.op, keys, pool, int(max(c.memBudget(), storage.PageSize)))
	kind := "in-memory columnar"
	if external {
		kind = fmt.Sprintf("external (est %d bytes > budget %d)", sortBytes, c.memBudget())
	}
	c.note(op, "%s sort for %s, est %d rows", kind, why, n.est.Rows)
	c.setEst(op, n.est.Rows)
	// The ordering claim is ascending-only (catalog.Table.OrderedBy
	// semantics): claim the keys up to the first descending one — a
	// stream sorted by (a ASC, b DESC) is still non-decreasing on a, but
	// claiming b would let later plans skip a genuinely needed sort.
	var ordering []int
	for _, k := range keys {
		if k.Desc {
			break
		}
		ordering = append(ordering, k.Col)
	}
	return node{op: op, est: n.est, ordering: ordering, ranges: n.ranges}
}

// gtConjunct is a WHERE conjunct of the form right[ri] > left[li] (SETM's
// lexicographic extension condition) that a merge join can evaluate as a
// vectorized suffix selection instead of a Filter above the join.
type gtConjunct struct {
	cj     *conjunct
	li, ri int // column indexes into the left / right input schemas
}

// joinChoice builds the physical operator tree for an equi-join by the
// shape of its inputs: a merge-scan when both are ordered on the keys,
// else a hash join when the right (build) side's estimated bytes fit the
// budget, else sorts of the unordered sides and a merge-scan. The rule
// that fired is attached to the join operator for EXPLAIN. gt, when
// non-nil, is a pushable residual: the merge branch absorbs it (marking
// the conjunct used); the hash branch leaves it for attachFilters.
// probeOnly says the statement reads no column of the right input above
// the join, so a hash join may run as a semi-join.
func (c *Compiler) joinChoice(left, right node, leftKeys, rightKeys []int, gt *gtConjunct, probeOnly bool) node {
	leftSorted := orderingHasPrefix(left.ordering, leftKeys)
	rightSorted := orderingHasPrefix(right.ordering, rightKeys)

	// Join cardinality: |L|·|R| / max(|L|,|R|) — the uniform-key estimate.
	outRows := left.est.Rows * right.est.Rows
	if m := max(left.est.Rows, right.est.Rows); m > 0 {
		outRows /= m
	}
	est := Estimate{Rows: outRows, RowBytes: schemaRowBytes(left.op.Schema(), right.op.Schema())}
	ranges := append(append([]tuple.Range{}, left.ranges...), right.ranges...)

	var noteTxt string
	switch {
	case leftSorted && rightSorted:
		keys := fmt.Sprint(leftKeys)
		if !slices.Equal(leftKeys, rightKeys) {
			keys += fmt.Sprintf(" = %v", rightKeys)
		}
		noteTxt = "merge-scan: both inputs ordered on " + keys
	case right.est.Bytes() <= c.memBudget():
		op := exec.NewHashJoin(left.op, right.op, leftKeys, rightKeys)
		if right.est.Rows > 0 && right.est.Rows < 1<<24 {
			op.SetBuildSizeHint(int(right.est.Rows))
		}
		if probeOnly {
			op.SetProbeOnly()
		}
		c.note(op, "hash: build %d rows fits budget; est %d rows; probe: %s", right.est.Rows, est.Rows,
			op.KernelFor(colRanges(right.ranges, rightKeys...), right.est.Rows))
		c.setEst(op, est.Rows)
		// Probing emits each left row's matches contiguously, so any
		// ordering on left columns survives.
		return node{op: op, est: est, ordering: append([]int{}, left.ordering...), ranges: ranges}
	default:
		noteTxt = fmt.Sprintf("merge-scan: build %d bytes over budget %d", right.est.Bytes(), c.memBudget())
	}

	l := left
	if leftSorted {
		c.noteAppend(left.op, "already ordered on %v: merge-scan sort skipped", leftKeys)
	} else {
		l = c.sortNode(left, sortKeysFor(leftKeys), "merge-scan join")
	}
	r := right
	if rightSorted {
		c.noteAppend(right.op, "already ordered on %v: merge-scan sort skipped", rightKeys)
	} else {
		r = c.sortNode(right, sortKeysFor(rightKeys), "merge-scan join")
	}
	op := exec.NewMergeJoin(l.op, r.op, leftKeys, rightKeys)
	if gt != nil {
		// The residual selects, per left row, the suffix of its sorted
		// right group above the left value — evaluated on column vectors
		// with a binary search plus bulk appends instead of a Filter pass
		// over materialized join rows.
		op.SetVecResidualGT(gt.li, gt.ri)
		gt.cj.used = true
		est.Rows = max(1, int64(float64(est.Rows)*costmodel.DefaultSelRange))
		noteTxt += fmt.Sprintf("; residual R[%d]>L[%d] pushed down", gt.ri, gt.li)
	}
	c.note(op, "%s; est %d rows", noteTxt, est.Rows)
	c.setEst(op, est.Rows)
	// Merge join emits left rows in order, each with its right group in
	// right order: the output stays ordered by the left stream's ordering
	// — and by left columns ONLY. Extending the claim with right columns
	// would require every left row to be distinct: any repeated left row
	// (SQL tables have bag semantics) replays the whole right group,
	// interleaving right values (group c=1,2 under two equal left rows
	// emits 1,2,1,2). Without a uniqueness proof the planner stays
	// conservative.
	return node{op: op, est: est, ordering: append([]int{}, l.ordering...), ranges: ranges}
}

// colRanges picks the bounds of columns idxs; a column without one (a
// computed column, -1, or an aggregate past the end) is unbounded.
func colRanges(ranges []tuple.Range, idxs ...int) []tuple.Range {
	out := make([]tuple.Range, len(idxs))
	for i, c := range idxs {
		out[i] = tuple.FullRange
		if c >= 0 && c < len(ranges) {
			out[i] = ranges[c]
		}
	}
	return out
}

func sortKeysFor(cols []int) []exec.SortKey {
	keys := make([]exec.SortKey, len(cols))
	for i, c := range cols {
		keys[i] = exec.SortKey{Col: c}
	}
	return keys
}
