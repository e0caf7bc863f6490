// Package plan compiles parsed SQL statements into executable operator
// trees. It performs name resolution, predicate pushdown, the rule-based
// choice between merge-scan and hash equi-joins and between sort- and
// hash-based grouping, and ORDER BY placement. Every column and value is an integer;
// booleans are 0/1. A table in FROM must be joined to the tables before it
// by a column equality — a cross product is an error — and GROUP BY and
// ORDER BY take column references only.
//
// Every expression — WHERE and HAVING conjuncts, the select list, INSERT …
// VALUES — compiles to one vectorized form, exec.Expr, which computes a
// column vector over a batch's live rows. AND and OR short-circuit per row:
// the right side runs only on the rows the left side leaves undecided. Each
// AND term of WHERE becomes one Filter conjunct, placed as low as its
// columns allow, and a Filter narrows its selection conjunct by conjunct in
// WHERE order, so within one Filter a later conjunct never sees a row an
// earlier one removed.
//
// The planner embodies the paper's observation that "the experience that
// has been gained in optimizing relational queries can directly be applied"
// to mining: given the SETM queries, it independently chooses the
// sort/merge-scan plan of Section 4.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"setm/internal/exec"
	"setm/internal/sqlparse"
	"setm/internal/tuple"
)

// Params carries named query parameters (:minsupport and friends).
type Params map[string]int64

// resolveColumn finds the schema index of a column reference. Qualified
// references ("p.item") must match exactly; unqualified references match a
// unique column whose bare name equals the reference.
func resolveColumn(s *tuple.Schema, ref *sqlparse.ColumnRef) (int, error) {
	if ref.Qualifier != "" {
		want := ref.Qualifier + "." + ref.Name
		if idx := s.ColIndex(want); idx >= 0 {
			return idx, nil
		}
		return -1, fmt.Errorf("plan: unknown column %s in %s", ref, s)
	}
	// Unqualified: exact bare-name match or unique ".name" suffix.
	if idx := s.ColIndex(ref.Name); idx >= 0 {
		return idx, nil
	}
	found := -1
	suffix := "." + strings.ToLower(ref.Name)
	for i, c := range s.Cols {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if found >= 0 {
				return -1, fmt.Errorf("plan: ambiguous column %s in %s", ref, s)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("plan: unknown column %s in %s", ref, s)
	}
	return found, nil
}

// compileExpr lowers e to an exec.Expr over batches of schema s: column
// references, integer literals, bound parameters, NOT and every binary
// operator. Booleans are 0/1. Aggregates must have been rewritten to
// column references into the grouped schema first.
func compileExpr(e sqlparse.Expr, s *tuple.Schema, params Params) (exec.Expr, error) {
	switch v := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := resolveColumn(s, v)
		if err != nil {
			return nil, err
		}
		return exec.ColExpr(idx), nil

	case *sqlparse.IntLit:
		return constExpr(v.Value), nil

	case *sqlparse.Param:
		val, ok := params[v.Name]
		if !ok {
			return nil, fmt.Errorf("plan: missing value for parameter :%s", v.Name)
		}
		return constExpr(val), nil

	case *sqlparse.NotExpr:
		inner, err := compileExpr(v.E, s, params)
		if err != nil {
			return nil, err
		}
		// NOT x is x = 0.
		return binaryExpr(binaryOps[sqlparse.OpEq], inner, constExpr(0)), nil

	case *sqlparse.BinaryExpr:
		l, err := compileExpr(v.L, s, params)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(v.R, s, params)
		if err != nil {
			return nil, err
		}
		if v.Op == sqlparse.OpAnd || v.Op == sqlparse.OpOr {
			return logicExpr(l, r, v.Op == sqlparse.OpOr), nil
		}
		op, ok := binaryOps[v.Op]
		if !ok {
			return nil, fmt.Errorf("plan: unsupported operator %s", v.Op)
		}
		return binaryExpr(op, l, r), nil

	case *sqlparse.AggExpr:
		return nil, fmt.Errorf("plan: aggregate %s outside GROUP BY context", v)

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// binaryOps evaluates every arithmetic and comparison operator on one pair
// of values; false means division by zero. Comparisons yield 0 or 1.
var binaryOps = map[sqlparse.BinaryOp]func(a, b int64) (int64, bool){
	sqlparse.OpEq:  func(a, b int64) (int64, bool) { return b2i(a == b), true },
	sqlparse.OpNe:  func(a, b int64) (int64, bool) { return b2i(a != b), true },
	sqlparse.OpLt:  func(a, b int64) (int64, bool) { return b2i(a < b), true },
	sqlparse.OpLe:  func(a, b int64) (int64, bool) { return b2i(a <= b), true },
	sqlparse.OpGt:  func(a, b int64) (int64, bool) { return b2i(a > b), true },
	sqlparse.OpGe:  func(a, b int64) (int64, bool) { return b2i(a >= b), true },
	sqlparse.OpAdd: func(a, b int64) (int64, bool) { return a + b, true },
	sqlparse.OpSub: func(a, b int64) (int64, bool) { return a - b, true },
	sqlparse.OpMul: func(a, b int64) (int64, bool) { return a * b, true },
	sqlparse.OpDiv: func(a, b int64) (int64, bool) {
		if b == 0 {
			return 0, false
		}
		return a / b, true
	},
}

var errDivByZero = errors.New("plan: division by zero")

func b2i(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// fit returns *buf resliced to n values, replacing it first if it is short.
func fit(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	return (*buf)[:n]
}

// constExpr yields v on every live row.
func constExpr(v int64) exec.Expr {
	return func(b *tuple.Batch, sel []int32, out []int64) ([]int64, error) {
		if sel == nil {
			for phys := range out {
				out[phys] = v
			}
			return out, nil
		}
		for _, phys := range sel {
			out[phys] = v
		}
		return out, nil
	}
}

// binaryExpr applies op to the values of l and r on every live row. Each
// operand writes into a buffer of its own, so any expression can nest.
func binaryExpr(op func(a, b int64) (int64, bool), l, r exec.Expr) exec.Expr {
	var lbuf, rbuf []int64
	return func(b *tuple.Batch, sel []int32, out []int64) ([]int64, error) {
		lv, err := l(b, sel, fit(&lbuf, len(out)))
		if err != nil {
			return nil, err
		}
		rv, err := r(b, sel, fit(&rbuf, len(out)))
		if err != nil {
			return nil, err
		}
		if sel == nil {
			for phys := range out {
				v, ok := op(lv[phys], rv[phys])
				if !ok {
					return nil, errDivByZero
				}
				out[phys] = v
			}
			return out, nil
		}
		for _, phys := range sel {
			v, ok := op(lv[phys], rv[phys])
			if !ok {
				return nil, errDivByZero
			}
			out[phys] = v
		}
		return out, nil
	}
}

// logicExpr is AND (or = false) or OR (or = true) with SQL's short circuit:
// r is evaluated only on the rows l leaves undecided — the true ones under
// AND, the false ones under OR — so `a = 0 OR 10 / a > 1` divides no zero.
func logicExpr(l, r exec.Expr, or bool) exec.Expr {
	var lbuf, rbuf []int64
	var undecided []int32
	return func(b *tuple.Batch, sel []int32, out []int64) ([]int64, error) {
		lv, err := l(b, sel, fit(&lbuf, len(out)))
		if err != nil {
			return nil, err
		}
		decided := b2i(or)
		undecided = undecided[:0]
		if sel == nil {
			for phys := range out {
				if (lv[phys] != 0) == or {
					out[phys] = decided
				} else {
					undecided = append(undecided, int32(phys))
				}
			}
		} else {
			for _, phys := range sel {
				if (lv[phys] != 0) == or {
					out[phys] = decided
				} else {
					undecided = append(undecided, phys)
				}
			}
		}
		if len(undecided) == 0 {
			return out, nil
		}
		rv, err := r(b, undecided, fit(&rbuf, len(out)))
		if err != nil {
			return nil, err
		}
		for _, phys := range undecided {
			out[phys] = b2i(rv[phys] != 0)
		}
		return out, nil
	}
}

// compilePredicate lowers a boolean expression to the VecPredicate that
// keeps the rows where its value is not 0. The expression is evaluated on
// the input's live rows only.
func compilePredicate(e sqlparse.Expr, s *tuple.Schema, params Params) (exec.VecPredicate, error) {
	x, err := compileExpr(e, s, params)
	if err != nil {
		return nil, err
	}
	var buf []int64
	return func(b *tuple.Batch, in, out []int32) ([]int32, error) {
		v, err := x(b, in, fit(&buf, b.NumPhysical()))
		if err != nil {
			return nil, err
		}
		if in == nil {
			for phys := range b.NumPhysical() {
				if v[phys] != 0 {
					out = append(out, int32(phys))
				}
			}
			return out, nil
		}
		for _, phys := range in {
			if v[phys] != 0 {
				out = append(out, phys)
			}
		}
		return out, nil
	}, nil
}

// EvalConst evaluates a constant expression of INSERT … VALUES — literals,
// parameters and any operator over them — over a batch of one row and no
// columns, so a column reference is an unknown column.
func EvalConst(e sqlparse.Expr, params Params) (int64, error) {
	x, err := compileExpr(e, tuple.NewSchema(), params)
	if err != nil {
		return 0, err
	}
	one := tuple.NewBatch(tuple.NewSchema())
	one.BumpRow()
	v, err := x(one, nil, make([]int64, 1))
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// columnBindings returns the set of FROM-clause bindings an expression
// references; unqualified references resolve against the provided schema to
// recover their binding prefix.
func columnBindings(e sqlparse.Expr, s *tuple.Schema) (map[string]bool, error) {
	out := make(map[string]bool)
	var resolveErr error
	sqlparse.WalkColumns(e, func(c *sqlparse.ColumnRef) {
		if resolveErr != nil {
			return
		}
		if c.Qualifier != "" {
			out[strings.ToLower(c.Qualifier)] = true
			return
		}
		idx, err := resolveColumn(s, c)
		if err != nil {
			resolveErr = err
			return
		}
		name := s.Cols[idx].Name
		if dot := strings.IndexByte(name, '.'); dot >= 0 {
			out[strings.ToLower(name[:dot])] = true
		}
	})
	return out, resolveErr
}

// subsetOf reports whether every key of a is in b.
func subsetOf(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
