// EXPLAIN ANALYZE support: after a compiled plan has been drained, every
// operator holds its actual output cardinality (exec.OpStats). This file
// renders actual-vs-estimated rows per operator and extracts the
// (predicate classes, actual in/out rows) observations the calibration
// harness fits the planner's selectivity constants from.

package plan

import (
	"fmt"

	"setm/internal/costmodel"
	"setm/internal/exec"
)

// ExplainAnalyzed renders the plan like Explain but appends each
// operator's actual output cardinality next to the planner's estimate.
// Call it after the plan has been drained; operators that never produced a
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
		if note != "" {
			return note + "; " + act
		}
		return act
	})
}

// Observations extracts calibration observations from a drained plan: for
// every filter and grouping operator, its predicate classes paired with
// the actual input rows (the child's output) and actual output rows.
// Operators whose input was never drained contribute nothing.
func (p *Plan) Observations() []costmodel.Observation {
	var obs []costmodel.Observation
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		kids := exec.Children(op)
		for _, ch := range kids {
			walk(ch)
		}
		cls, ok := p.classes[op]
		if !ok || len(kids) != 1 {
			return
		}
		in, iok := kids[0].(exec.StatsReporter)
		out, ook := op.(exec.StatsReporter)
		if !iok || !ook {
			return
		}
		ist, ost := in.ExecStats(), out.ExecStats()
		if ist.Batches() == 0 {
			return
		}
		obs = append(obs, costmodel.Observation{
			Eq: cls.eq, Rng: cls.rng, Def: cls.def, Group: cls.group,
			In: ist.Rows(), Out: ost.Rows(),
		})
	}
	walk(p.Root)
	return obs
}
