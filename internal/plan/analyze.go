// EXPLAIN ANALYZE support: after a compiled plan has been drained, every
// operator holds its actual output cardinality (exec.OpStats). This file
// renders actual-vs-estimated rows per operator.

package plan

import (
	"fmt"

	"setm/internal/exec"
)

// ExplainAnalyzed renders the plan like Explain but appends each
// operator's actual output cardinality next to the planner's estimate.
// The count and probe operators also name the kernel they ran. Call it
// after the plan has been drained; operators that never produced a
// batch report "never executed" (e.g. the inner build side of a join that
// saw no probe rows).
func (p *Plan) ExplainAnalyzed() string {
	return exec.ExplainAnnotated(p.Root, func(op exec.Operator) string {
		note := p.notes[op]
		sr, ok := op.(exec.StatsReporter)
		if !ok {
			return note
		}
		st := sr.ExecStats()
		var act string
		switch {
		case st.Batches() == 0:
			act = "never executed"
		default:
			act = fmt.Sprintf("actual %d rows in %d batches", st.Rows(), st.Batches())
			if est, ok := p.ests[op]; ok {
				act += fmt.Sprintf(" (est %d)", est)
			}
		}
		if k, ok := op.(interface{ Kernel() string }); ok && k.Kernel() != "" {
			act += "; ran " + k.Kernel()
		}
		if note != "" {
			return note + "; " + act
		}
		return act
	})
}
