// Package plan compiles parsed SQL statements into executable operator
// trees. It performs name resolution, predicate pushdown, cost-based
// choice between merge-scan and hash equi-joins, sort- or hash-based
// grouping, and ORDER BY placement. Every column and value is an integer;
// booleans are 0/1. A table in FROM must be joined to the tables before it
// by a column equality — a cross product is an error — and GROUP BY and
// ORDER BY take column references only.
//
// The planner embodies the paper's observation that "the experience that
// has been gained in optimizing relational queries can directly be applied"
// to mining: given the SETM queries, it independently chooses the
// sort/merge-scan plan of Section 4.
package plan

import (
	"fmt"
	"strings"

	"setm/internal/exec"
	"setm/internal/sqlparse"
	"setm/internal/tuple"
)

// Params carries named query parameters (:minsupport and friends).
type Params map[string]tuple.Value

// IntParams builds Params from an int map; convenience for callers.
func IntParams(m map[string]int64) Params {
	p := make(Params, len(m))
	for k, v := range m {
		p[k] = tuple.I(v)
	}
	return p
}

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

// compileExpr builds a Projector evaluating e against tuples of schema s.
// Boolean results are encoded as integers (0/1). Aggregates must have been
// rewritten to column references before compilation.
func compileExpr(e sqlparse.Expr, s *tuple.Schema, params Params) (exec.Projector, error) {
	switch v := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := resolveColumn(s, v)
		if err != nil {
			return nil, err
		}
		return exec.ColProjector(idx), nil

	case *sqlparse.IntLit:
		return exec.ConstProjector(tuple.I(v.Value)), nil

	case *sqlparse.Param:
		val, ok := params[v.Name]
		if !ok {
			return nil, fmt.Errorf("plan: missing value for parameter :%s", v.Name)
		}
		return exec.ConstProjector(val), nil

	case *sqlparse.NotExpr:
		inner, err := compileExpr(v.E, s, params)
		if err != nil {
			return nil, err
		}
		return func(t tuple.Tuple) (tuple.Value, error) {
			x, err := inner(t)
			if err != nil {
				return tuple.Value{}, err
			}
			if truthy(x) {
				return tuple.I(0), nil
			}
			return tuple.I(1), nil
		}, nil

	case *sqlparse.BinaryExpr:
		l, err := compileExpr(v.L, s, params)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(v.R, s, params)
		if err != nil {
			return nil, err
		}
		return compileBinary(v.Op, l, r)

	case *sqlparse.AggExpr:
		return nil, fmt.Errorf("plan: aggregate %s outside GROUP BY context", v)

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func truthy(v tuple.Value) bool { return v.Int != 0 }

func compileBinary(op sqlparse.BinaryOp, l, r exec.Projector) (exec.Projector, error) {
	boolVal := func(b bool) tuple.Value {
		if b {
			return tuple.I(1)
		}
		return tuple.I(0)
	}
	switch op {
	case sqlparse.OpAnd:
		return func(t tuple.Tuple) (tuple.Value, error) {
			lv, err := l(t)
			if err != nil {
				return tuple.Value{}, err
			}
			if !truthy(lv) {
				return tuple.I(0), nil
			}
			rv, err := r(t)
			if err != nil {
				return tuple.Value{}, err
			}
			return boolVal(truthy(rv)), nil
		}, nil
	case sqlparse.OpOr:
		return func(t tuple.Tuple) (tuple.Value, error) {
			lv, err := l(t)
			if err != nil {
				return tuple.Value{}, err
			}
			if truthy(lv) {
				return tuple.I(1), nil
			}
			rv, err := r(t)
			if err != nil {
				return tuple.Value{}, err
			}
			return boolVal(truthy(rv)), nil
		}, nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		return func(t tuple.Tuple) (tuple.Value, error) {
			lv, err := l(t)
			if err != nil {
				return tuple.Value{}, err
			}
			rv, err := r(t)
			if err != nil {
				return tuple.Value{}, err
			}
			c := tuple.Compare(lv, rv)
			switch op {
			case sqlparse.OpEq:
				return boolVal(c == 0), nil
			case sqlparse.OpNe:
				return boolVal(c != 0), nil
			case sqlparse.OpLt:
				return boolVal(c < 0), nil
			case sqlparse.OpLe:
				return boolVal(c <= 0), nil
			case sqlparse.OpGt:
				return boolVal(c > 0), nil
			default:
				return boolVal(c >= 0), nil
			}
		}, nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		return func(t tuple.Tuple) (tuple.Value, error) {
			lv, err := l(t)
			if err != nil {
				return tuple.Value{}, err
			}
			rv, err := r(t)
			if err != nil {
				return tuple.Value{}, err
			}
			switch op {
			case sqlparse.OpAdd:
				return tuple.I(lv.Int + rv.Int), nil
			case sqlparse.OpSub:
				return tuple.I(lv.Int - rv.Int), nil
			case sqlparse.OpMul:
				return tuple.I(lv.Int * rv.Int), nil
			default:
				if rv.Int == 0 {
					return tuple.Value{}, fmt.Errorf("plan: division by zero")
				}
				return tuple.I(lv.Int / rv.Int), nil
			}
		}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported operator %s", op)
	}
}

// vecOperand classifies an expression as a vectorizable operand: a column
// reference or a constant (literal or bound parameter).
func vecOperand(e sqlparse.Expr, s *tuple.Schema, params Params) (colIdx int, constVal int64, isCol, ok bool) {
	switch v := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := resolveColumn(s, v)
		if err != nil {
			return 0, 0, false, false
		}
		return idx, 0, true, true
	case *sqlparse.IntLit:
		return 0, v.Value, false, true
	case *sqlparse.Param:
		val, have := params[v.Name]
		if !have {
			return 0, 0, false, false
		}
		return 0, val.Int, false, true
	}
	return 0, 0, false, false
}

// intCmpKeep returns the per-row keep decision for a comparison operator
// over int64 operands, or nil for non-comparison operators.
func intCmpKeep(op sqlparse.BinaryOp) func(a, b int64) bool {
	switch op {
	case sqlparse.OpEq:
		return func(a, b int64) bool { return a == b }
	case sqlparse.OpNe:
		return func(a, b int64) bool { return a != b }
	case sqlparse.OpLt:
		return func(a, b int64) bool { return a < b }
	case sqlparse.OpLe:
		return func(a, b int64) bool { return a <= b }
	case sqlparse.OpGt:
		return func(a, b int64) bool { return a > b }
	case sqlparse.OpGe:
		return func(a, b int64) bool { return a >= b }
	}
	return nil
}

// mirrorOp swaps a comparison's operand order: a OP b ⇔ b mirrorOp(OP) a.
func mirrorOp(op sqlparse.BinaryOp) sqlparse.BinaryOp {
	switch op {
	case sqlparse.OpLt:
		return sqlparse.OpGt
	case sqlparse.OpLe:
		return sqlparse.OpGe
	case sqlparse.OpGt:
		return sqlparse.OpLt
	case sqlparse.OpGe:
		return sqlparse.OpLe
	default: // Eq/Ne are symmetric
		return op
	}
}

// compileVecPredicate lowers a conjunct to a vectorized predicate when it
// is a comparison between columns and/or constants — the shapes
// SETM's WHERE and HAVING clauses are made of (q.trans_id = p.trans_id,
// q.item > p.item_{k-1}, COUNT(*) >= :minsupport). It returns nil when the
// expression needs the general row-at-a-time evaluator.
func compileVecPredicate(e sqlparse.Expr, s *tuple.Schema, params Params) exec.VecPredicate {
	be, ok := e.(*sqlparse.BinaryExpr)
	if !ok {
		return nil
	}
	op := be.Op
	if intCmpKeep(op) == nil {
		return nil
	}
	lc, lv, lIsCol, lok := vecOperand(be.L, s, params)
	rc, rv, rIsCol, rok := vecOperand(be.R, s, params)
	if !lok || !rok {
		return nil
	}
	// Normalize const-col to col-const by mirroring the operator, leaving
	// three shapes: col-col, col-const, const-const.
	if !lIsCol && rIsCol {
		op = mirrorOp(op)
		lc, lIsCol = rc, true
		rv = lv
		rIsCol = false
	}
	keep := intCmpKeep(op)
	switch {
	case lIsCol && rIsCol:
		return func(b *tuple.Batch, in, out []int32) ([]int32, error) {
			a, bb := b.Cols[lc].I, b.Cols[rc].I
			if in == nil {
				for phys := range a {
					if keep(a[phys], bb[phys]) {
						out = append(out, int32(phys))
					}
				}
				return out, nil
			}
			for _, phys := range in {
				if keep(a[phys], bb[phys]) {
					out = append(out, phys)
				}
			}
			return out, nil
		}
	case lIsCol:
		return func(b *tuple.Batch, in, out []int32) ([]int32, error) {
			a := b.Cols[lc].I
			if in == nil {
				for phys := range a {
					if keep(a[phys], rv) {
						out = append(out, int32(phys))
					}
				}
				return out, nil
			}
			for _, phys := range in {
				if keep(a[phys], rv) {
					out = append(out, phys)
				}
			}
			return out, nil
		}
	default:
		// Constant comparison: all-or-nothing.
		pass := keep(lv, rv)
		return func(b *tuple.Batch, in, out []int32) ([]int32, error) {
			if !pass {
				return out, nil
			}
			if in == nil {
				for phys := 0; phys < b.NumPhysical(); phys++ {
					out = append(out, int32(phys))
				}
				return out, nil
			}
			return append(out, in...), nil
		}
	}
}

// compilePredicate builds an exec.Predicate from a boolean expression.
func compilePredicate(e sqlparse.Expr, s *tuple.Schema, params Params) (exec.Predicate, error) {
	pr, err := compileExpr(e, s, params)
	if err != nil {
		return nil, err
	}
	return func(t tuple.Tuple) (bool, error) {
		v, err := pr(t)
		if err != nil {
			return false, err
		}
		return truthy(v), nil
	}, nil
}

// andPredicates combines conjunct predicates.
func andPredicates(preds []exec.Predicate) exec.Predicate {
	return func(t tuple.Tuple) (bool, error) {
		for _, p := range preds {
			ok, err := p(t)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
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
