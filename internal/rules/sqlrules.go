package rules

import (
	"fmt"
	"strings"

	"setm/internal/core"
	"setm/internal/engine"
	"setm/internal/tuple"
)

// GenerateSQL derives the Section 5 rules with SQL alone, completing the
// paper's set-oriented programme: rule generation, like pattern discovery,
// becomes a join. For every pattern length k ≥ 2 and every antecedent
// shape (drop one of the k items), the rules are
//
//	SELECT c.item1, ..., c.itemk, c.cnt, a.cnt
//	FROM ck c, ck1 a
//	WHERE a.item1 = c.item<i1> AND ... AND a.item{k-1} = c.item<i{k-1}>
//	  AND c.cnt * 100 >= :minconf_pct * a.cnt
//
// where <i1..i{k-1}> are the kept item positions. The confidence test is
// expressed with integer arithmetic (cnt·100 ≥ pct·antecedent), so the
// whole derivation runs on the engine without floating point.
//
// minConfidence is a fraction; it is converted to an integer percentage
// (rounded to the nearest percent, as the paper's examples use whole
// percentages).
func GenerateSQL(res *core.Result, minConfidence float64) ([]Rule, error) {
	if res == nil || len(res.Counts) == 0 {
		return nil, fmt.Errorf("rules: empty mining result")
	}
	if minConfidence < 0 || minConfidence > 1 {
		return nil, fmt.Errorf("rules: MinConfidence %v outside [0,1]", minConfidence)
	}
	pct := int64(minConfidence*100 + 0.5)

	db := engine.New()
	// Load every C_k as a table ck(item1..itemk, cnt).
	for k := 1; k <= len(res.Counts); k++ {
		names := make([]string, 0, k+1)
		for i := 1; i <= k; i++ {
			names = append(names, fmt.Sprintf("item%d", i))
		}
		schema := tuple.IntSchema(append(names, "cnt")...)
		b := tuple.NewBatch(schema)
		for _, c := range res.C(k) {
			for i, it := range c.Items {
				b.Cols[i].I = append(b.Cols[i].I, it)
			}
			b.Cols[k].I = append(b.Cols[k].I, c.Count)
			b.BumpRow()
		}
		if err := db.LoadTableBatch(fmt.Sprintf("c%d", k), schema, b, nil); err != nil {
			return nil, err
		}
	}

	n := float64(res.NumTransactions)
	var out []Rule
	for k := 2; k <= len(res.Counts); k++ {
		if len(res.C(k)) == 0 {
			continue
		}
		for drop := k - 1; drop >= 0; drop-- {
			// Kept positions, in order, form the antecedent.
			var eqs []string
			kept := make([]int, 0, k-1)
			for i, ai := 0, 1; i < k; i++ {
				if i == drop {
					continue
				}
				kept = append(kept, i)
				eqs = append(eqs, fmt.Sprintf("a.item%d = c.item%d", ai, i+1))
				ai++
			}
			sel := make([]string, 0, k+2)
			for i := 1; i <= k; i++ {
				sel = append(sel, fmt.Sprintf("c.item%d", i))
			}
			sel = append(sel, "c.cnt", "a.cnt")
			q := fmt.Sprintf(
				`SELECT %s FROM c%d c, c%d a
				 WHERE %s AND c.cnt * 100 >= :pct * a.cnt
				 ORDER BY %s`,
				strings.Join(sel, ", "), k, k-1,
				strings.Join(eqs, " AND "),
				strings.Join(sel[:k], ", "))
			// One prepared statement per (k, dropped-position) shape; the
			// confidence threshold binds as :pct at execution time.
			st, err := db.Prepare(q)
			if err != nil {
				return nil, err
			}
			r, err := st.Exec(map[string]int64{"pct": pct})
			if err != nil {
				return nil, err
			}
			for _, row := range r.Rows {
				items := make([]core.Item, k)
				copy(items, row[:k])
				cnt, antCnt := row[k], row[k+1]
				ant := make([]core.Item, 0, k-1)
				for _, i := range kept {
					ant = append(ant, items[i])
				}
				out = append(out, Rule{
					Antecedent: ant,
					Consequent: items[drop],
					Confidence: float64(cnt) / float64(antCnt),
					Support:    float64(cnt) / n,
					Count:      cnt,
				})
			}
		}
	}
	// Order identically to Generate: by pattern length, then antecedent,
	// then consequent.
	sortRulesCanonical(out)
	return out, nil
}

func sortRulesCanonical(rs []Rule) {
	// Stable insertion sort keyed by (len, antecedent, consequent); rule
	// counts are small (|rules| ≤ k·|C_k|).
	less := func(a, b Rule) bool {
		if len(a.Antecedent) != len(b.Antecedent) {
			return len(a.Antecedent) < len(b.Antecedent)
		}
		return ruleLess(a, b)
	}
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
