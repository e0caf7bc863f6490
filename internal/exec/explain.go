package exec

import (
	"fmt"
	"strings"
)

// Children returns op's direct inputs in plan order (left before right).
// It is the one description of the operator tree's shape: EXPLAIN [ANALYZE]
// rendering and the planner tests walk plans through it. Leaf operators return nil.
func Children(op Operator) []Operator {
	switch v := op.(type) {
	case *Rename:
		return []Operator{v.child}
	case *Filter:
		return []Operator{v.child}
	case *Project:
		return []Operator{v.child}
	case *Sort:
		return []Operator{v.child}
	case *SortGroup:
		return []Operator{v.child}
	case *MergeJoin:
		return []Operator{v.left, v.right}
	case *HashJoin:
		return []Operator{v.left, v.right}
	case *HashGroup:
		return []Operator{v.child}
	default:
		return nil
	}
}

// Explain renders an operator tree as an indented plan, one operator per
// line, in the style of EXPLAIN output:
//
//	Project [trans_id item1 item]
//	  MergeJoin on L[0]=R[0]
//	    Sort
//	      Rename (scan p)
//	    Sort
//	      Rename (scan q)
func Explain(op Operator) string { return ExplainAnnotated(op, nil) }

// ExplainAnnotated renders the plan with a per-operator annotation
// callback; non-empty notes are appended to the operator's line. The
// planner supplies its estimates and the rule behind each choice this way.
func ExplainAnnotated(op Operator, note func(Operator) string) string {
	var b strings.Builder
	explainAt(&b, op, 0, note)
	return b.String()
}

func explainAt(b *strings.Builder, op Operator, depth int, note func(Operator) string) {
	indent := strings.Repeat("  ", depth)
	line := func(format string, args ...interface{}) {
		fmt.Fprintf(b, "%s"+format, append([]interface{}{indent}, args...)...)
		if note != nil {
			if s := note(op); s != "" {
				fmt.Fprintf(b, "  -- %s", s)
			}
		}
		b.WriteByte('\n')
	}
	switch v := op.(type) {
	case *HeapScan:
		line("HeapScan %s (%d rows, %d pages)", v.file.Schema(), v.file.Rows(), v.file.Pages())
	case *Rename:
		line("Rename %s", v.schema)
	case *Filter:
		line("Filter (%d vectorized)", len(v.vecs))
	case *Project:
		line("Project %s", v.schema)
	case *Sort:
		if v.pool != nil {
			line("Sort keys=%v (external)", v.keys)
		} else {
			line("Sort keys=%v (vectorized in-memory)", v.keys)
		}
	case *SortGroup:
		line("SortGroup by %v (%d aggregates)", v.groupCols, len(v.aggs))
	case *MergeJoin:
		if v.hasVecGT {
			line("MergeJoin on %v = %v (residual R[%d] > L[%d] pushed down)", v.leftKeys, v.rightKeys, v.gtRight, v.gtLeft)
		} else {
			line("MergeJoin on %v = %v", v.leftKeys, v.rightKeys)
		}
	case *HashJoin:
		line("HashJoin on %v = %v (build right)", v.leftKeys, v.rightKeys)
	case *HashGroup:
		line("HashGroup by %v (%d aggregates)", v.groupCols, len(v.aggs))
	default:
		line("%T", op)
	}
	for _, c := range Children(op) {
		explainAt(b, c, depth+1, note)
	}
}
