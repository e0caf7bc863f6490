package plan

import (
	"fmt"
	"strings"

	"setm/internal/catalog"
	"setm/internal/costmodel"
	"setm/internal/exec"
	"setm/internal/sqlparse"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// Compiler turns statements into operator trees against a catalog.
type Compiler struct {
	cat    *catalog.Catalog
	pool   *storage.Pool // spill target for external sorts; nil = in-memory only
	params Params
	// MemBudget bounds the in-memory working set of a sort or hash build
	// (0 = DefaultMemBudget): a sort above it spills, a hash build above it
	// becomes sorts and a merge-scan, and an external sort's runs are this
	// size.
	MemBudget int64

	notes map[exec.Operator]string
	ests  map[exec.Operator]int64
}

// NewCompiler builds a compiler. pool may be nil to keep sorts in memory.
func NewCompiler(cat *catalog.Catalog, pool *storage.Pool, params Params) *Compiler {
	if params == nil {
		params = Params{}
	}
	return &Compiler{cat: cat, pool: pool, params: params}
}

// CompilePlan compiles a SELECT into a physical plan, choosing operators
// by the shape of their inputs (known orderings, and estimated bytes
// against the budget) and tracking the output ordering so provably
// redundant sorts are skipped.
func (c *Compiler) CompilePlan(sel *sqlparse.Select) (*Plan, error) {
	c.notes = make(map[exec.Operator]string)
	c.ests = make(map[exec.Operator]int64)
	n, err := c.compileFromWhere(sel)
	if err != nil {
		return nil, err
	}

	needGroup := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if it.Expr != nil && sqlparse.HasAggregate(it.Expr) {
			needGroup = true
		}
	}
	if sel.Having != nil {
		needGroup = true
	}

	aggCols := map[string]int{}
	if needGroup {
		n, aggCols, err = c.compileGroup(sel, n)
		if err != nil {
			return nil, err
		}
	}

	n, err = c.compileProjection(sel, n, aggCols)
	if err != nil {
		return nil, err
	}

	n, err = c.compileOrderBy(sel, n, aggCols)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: n.op, Ordering: n.ordering, Est: n.est,
		notes: c.notes, ests: c.ests}, nil
}

// scanRef builds a qualified scan of one FROM table: every column is
// exposed as "binding.column". The estimate uses the catalog's live row
// count; the known storage ordering carries over (column positions are
// unchanged by renaming).
func (c *Compiler) scanRef(ref sqlparse.TableRef) (node, error) {
	tbl, err := c.cat.Get(ref.Table)
	if err != nil {
		return node{}, err
	}
	base := tbl.File.Schema()
	binding := ref.Binding()
	cols := make([]tuple.Column, base.Len())
	for i, col := range base.Cols {
		cols[i] = tuple.Column{Name: binding + "." + col.Name, Kind: col.Kind}
	}
	op := exec.NewRename(exec.NewHeapScan(tbl.File), tuple.NewSchema(cols...))
	est := Estimate{Rows: tbl.File.Rows(), RowBytes: schemaRowBytes(base)}
	c.setEst(op, est.Rows)
	return node{op: op, est: est, ordering: append([]int{}, tbl.OrderedBy...), ranges: tbl.File.Ranges()}, nil
}

// conjunct tracks one WHERE conjunct and whether a join step consumed it.
type conjunct struct {
	expr sqlparse.Expr
	used bool
}

// conjSelectivity returns the System-R selectivity of one conjunct by its
// class: equality, range, or anything else.
func conjSelectivity(e sqlparse.Expr) float64 {
	if be, ok := e.(*sqlparse.BinaryExpr); ok {
		switch be.Op {
		case sqlparse.OpEq:
			return costmodel.DefaultSelEquality
		case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			return costmodel.DefaultSelRange
		}
	}
	return costmodel.DefaultSelDefault
}

// fullFromSchema concatenates the qualified schemas of every FROM table,
// the scope WHERE expressions resolve against.
func (c *Compiler) fullFromSchema(from []sqlparse.TableRef) (*tuple.Schema, error) {
	var cols []tuple.Column
	for _, ref := range from {
		tbl, err := c.cat.Get(ref.Table)
		if err != nil {
			return nil, err
		}
		for _, col := range tbl.File.Schema().Cols {
			cols = append(cols, tuple.Column{Name: ref.Binding() + "." + col.Name, Kind: col.Kind})
		}
	}
	return tuple.NewSchema(cols...), nil
}

// attachFilters wraps n with every unused conjunct resolvable in scope
// (nil scope = anything resolvable), one Filter conjunct each.
func (c *Compiler) attachFilters(n node, conjs []*conjunct, scope map[string]bool) (node, error) {
	var vecs []exec.VecPredicate
	sel := 1.0
	for _, cj := range conjs {
		if cj.used {
			continue
		}
		if scope != nil {
			bind, err := columnBindings(cj.expr, n.op.Schema())
			if err != nil {
				continue // not resolvable here; a later scope will take it
			}
			if !subsetOf(bind, scope) {
				continue
			}
		}
		vp, err := compilePredicate(cj.expr, n.op.Schema(), c.params)
		if err != nil {
			return node{}, err
		}
		vecs = append(vecs, vp)
		sel *= conjSelectivity(cj.expr)
		cj.used = true
	}
	if len(vecs) == 0 {
		return n, nil
	}
	op := exec.NewFilter(n.op, vecs)
	est := n.est
	est.Rows = max(1, int64(float64(est.Rows)*sel))
	c.note(op, "selectivity≈%.2f, est %d rows (%d/%d conjuncts vectorized)",
		sel, est.Rows, len(vecs), len(vecs))
	c.setEst(op, est.Rows)
	return node{op: op, est: est, ordering: n.ordering, ranges: n.ranges}, nil
}

// compileFromWhere builds the join tree: left-deep in FROM order, with the
// physical join operator (merge-scan or hash) chosen per step by
// joinChoice's rule. Every table after the first must be linked to the
// tables before it by at least one column equality; a cross product is
// refused.
// Single-table conjuncts are pushed below the joins.
func (c *Compiler) compileFromWhere(sel *sqlparse.Select) (node, error) {
	if len(sel.From) == 0 {
		return node{}, fmt.Errorf("plan: query has no FROM clause")
	}
	conjs := make([]*conjunct, 0)
	for _, e := range sqlparse.SplitConjuncts(sel.Where) {
		conjs = append(conjs, &conjunct{expr: e})
	}

	// Validate every WHERE column against the full FROM scope up front:
	// pushdown below resolves opportunistically per table and would
	// otherwise let an ambiguous unqualified reference slip through.
	fullSchema, err := c.fullFromSchema(sel.From)
	if err != nil {
		return node{}, err
	}
	for _, cj := range conjs {
		var colErr error
		sqlparse.WalkColumns(cj.expr, func(cr *sqlparse.ColumnRef) {
			if colErr != nil {
				return
			}
			if _, err := resolveColumn(fullSchema, cr); err != nil {
				colErr = err
			}
		})
		if colErr != nil {
			return node{}, colErr
		}
	}

	current, err := c.scanRef(sel.From[0])
	if err != nil {
		return node{}, err
	}
	scope := map[string]bool{strings.ToLower(sel.From[0].Binding()): true}
	current, err = c.attachFilters(current, conjs, scope)
	if err != nil {
		return node{}, err
	}

	for _, ref := range sel.From[1:] {
		right, err := c.scanRef(ref)
		if err != nil {
			return node{}, err
		}
		rbind := strings.ToLower(ref.Binding())
		right, err = c.attachFilters(right, conjs, map[string]bool{rbind: true})
		if err != nil {
			return node{}, err
		}

		// Find equi-join conjuncts linking current scope to the new table.
		var leftKeys, rightKeys []int
		for _, cj := range conjs {
			if cj.used {
				continue
			}
			be, ok := cj.expr.(*sqlparse.BinaryExpr)
			if !ok || be.Op != sqlparse.OpEq {
				continue
			}
			lcol, lok := be.L.(*sqlparse.ColumnRef)
			rcol, rok := be.R.(*sqlparse.ColumnRef)
			if !lok || !rok {
				continue
			}
			li, lerr := resolveColumn(current.op.Schema(), lcol)
			ri, rerr := resolveColumn(right.op.Schema(), rcol)
			if lerr != nil || rerr != nil {
				// Try the mirrored orientation.
				li, lerr = resolveColumn(current.op.Schema(), rcol)
				ri, rerr = resolveColumn(right.op.Schema(), lcol)
				if lerr != nil || rerr != nil {
					continue
				}
			}
			leftKeys = append(leftKeys, li)
			rightKeys = append(rightKeys, ri)
			cj.used = true
		}
		if len(leftKeys) == 0 {
			return node{}, fmt.Errorf("plan: no equi-join condition links %s to the tables before it", ref.Binding())
		}

		// A remaining conjunct of the form right.col > left.col (or the
		// mirrored <) is a pushdown candidate: a merge join evaluates it
		// as a vectorized suffix selection on each sorted right group. To
		// preserve the joined-schema resolution semantics, each side must
		// resolve in exactly one input.
		var gt *gtConjunct
		for _, cj := range conjs {
			if gt != nil {
				break
			}
			if cj.used {
				continue
			}
			be, ok := cj.expr.(*sqlparse.BinaryExpr)
			if !ok || (be.Op != sqlparse.OpGt && be.Op != sqlparse.OpLt) {
				continue
			}
			lcol, lok := be.L.(*sqlparse.ColumnRef)
			rcol, rok := be.R.(*sqlparse.ColumnRef)
			if !lok || !rok {
				continue
			}
			big, small := lcol, rcol // the conjunct states big > small
			if be.Op == sqlparse.OpLt {
				big, small = rcol, lcol
			}
			ri, rerr := resolveColumn(right.op.Schema(), big)
			li, lerr := resolveColumn(current.op.Schema(), small)
			if lerr != nil || rerr != nil {
				continue
			}
			if _, err := resolveColumn(current.op.Schema(), big); err == nil {
				continue // ambiguous across inputs
			}
			if _, err := resolveColumn(right.op.Schema(), small); err == nil {
				continue
			}
			gt = &gtConjunct{cj: cj, li: li, ri: ri}
		}

		current = c.joinChoice(current, right, leftKeys, rightKeys, gt, !readsAny(sel, conjs, right.op.Schema()))
		scope[rbind] = true
		current, err = c.attachFilters(current, conjs, scope)
		if err != nil {
			return node{}, err
		}
	}

	// Anything left (e.g. constant predicates) applies at the top.
	return c.attachFilters(current, conjs, nil)
}

// readsAny reports whether sel may read a column of schema (a join's right
// input) outside the join conditions already consumed: a star, or any
// column reference whose name could match one of schema's. It errs
// towards true.
func readsAny(sel *sqlparse.Select, conjs []*conjunct, schema *tuple.Schema) (found bool) {
	exprs := append([]sqlparse.Expr{sel.Having}, sel.GroupBy...)
	for _, it := range sel.Items {
		if it.Star {
			return true
		}
		exprs = append(exprs, it.Expr)
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, cj := range conjs {
		if !cj.used {
			exprs = append(exprs, cj.expr)
		}
	}
	for _, e := range exprs {
		sqlparse.WalkColumns(e, func(cr *sqlparse.ColumnRef) {
			for _, col := range schema.Cols {
				bind, name, _ := strings.Cut(col.Name, ".")
				found = found || strings.EqualFold(cr.Name, name) && (cr.Qualifier == "" || strings.EqualFold(cr.Qualifier, bind))
			}
		})
	}
	return found
}

// compileGroup plans GROUP BY/aggregates: a sequential grouped scan (the
// paper's count-generation step) when the input is already ordered on the
// grouping columns; else a hash aggregate when the estimated groups fit
// the budget; else a sort on the grouping columns, then the grouped scan.
// Both emit groups in ascending group-column order, so the output is
// bit-identical whichever runs. It returns the grouped node and a map from
// aggregate expression text (e.g. "COUNT(*)") to its column index in the
// grouped schema.
func (c *Compiler) compileGroup(sel *sqlparse.Select, in node) (node, map[string]int, error) {
	inSchema := in.op.Schema()
	groupIdxs := make([]int, 0, len(sel.GroupBy))
	for _, ge := range sel.GroupBy {
		cr, ok := ge.(*sqlparse.ColumnRef)
		if !ok {
			return node{}, nil, fmt.Errorf("plan: GROUP BY supports column references only, got %s", ge)
		}
		idx, err := resolveColumn(inSchema, cr)
		if err != nil {
			return node{}, nil, err
		}
		groupIdxs = append(groupIdxs, idx)
	}

	// Collect distinct aggregates from the select list and HAVING.
	var aggExprs []*sqlparse.AggExpr
	seen := map[string]bool{}
	collect := func(e sqlparse.Expr) {
		var walk func(sqlparse.Expr)
		walk = func(e sqlparse.Expr) {
			switch v := e.(type) {
			case *sqlparse.AggExpr:
				if !seen[v.String()] {
					seen[v.String()] = true
					aggExprs = append(aggExprs, v)
				}
			case *sqlparse.BinaryExpr:
				walk(v.L)
				walk(v.R)
			case *sqlparse.NotExpr:
				walk(v.E)
			}
		}
		if e != nil {
			walk(e)
		}
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Having)

	specs := make([]exec.AggSpec, 0, len(aggExprs))
	aggCols := make(map[string]int, len(aggExprs))
	for i, ae := range aggExprs {
		spec := exec.AggSpec{Name: ae.String()}
		switch ae.Func {
		case sqlparse.FuncCount:
			spec.Kind = exec.AggCount
		case sqlparse.FuncSum, sqlparse.FuncMin, sqlparse.FuncMax:
			cr, ok := ae.Arg.(*sqlparse.ColumnRef)
			if !ok {
				return node{}, nil, fmt.Errorf("plan: %s argument must be a column", ae.Func)
			}
			idx, err := resolveColumn(inSchema, cr)
			if err != nil {
				return node{}, nil, err
			}
			spec.Col = idx
			switch ae.Func {
			case sqlparse.FuncSum:
				spec.Kind = exec.AggSum
			case sqlparse.FuncMin:
				spec.Kind = exec.AggMin
			default:
				spec.Kind = exec.AggMax
			}
		default:
			return node{}, nil, fmt.Errorf("plan: unsupported aggregate %s", ae.Func)
		}
		specs = append(specs, spec)
		aggCols[ae.String()] = len(groupIdxs) + i
	}

	estGroups := max(1, int64(float64(in.est.Rows)*costmodel.DefaultGroupFrac))
	groupBytes := estGroups * in.est.RowBytes
	ordered := orderingHasPrefix(in.ordering, groupIdxs)
	var gop exec.Operator
	switch {
	case len(groupIdxs) == 0:
		grp := exec.NewSortGroup(in.op, groupIdxs, specs)
		grp.Global = true
		gop = grp
		c.note(grp, "global aggregate over %d rows", in.est.Rows)
	case !ordered && groupBytes <= c.memBudget():
		hg := exec.NewHashGroup(in.op, groupIdxs, specs)
		hg.SetKeyRanges(colRanges(in.ranges, groupIdxs...))
		hg.SetSizeHint(in.est.Rows)
		gop = hg
		c.note(gop, "hash: est %d groups from %d rows fit budget; count: %s", estGroups, in.est.Rows, hg.KernelFor(in.est.Rows))
	default:
		why := fmt.Sprintf("input ordered on %v", groupIdxs)
		if !ordered {
			why = fmt.Sprintf("est %d groups (%d bytes) over budget %d", estGroups, groupBytes, c.memBudget())
		}
		gop = exec.NewSortGroup(c.sortNode(in, sortKeysFor(groupIdxs), "GROUP BY").op, groupIdxs, specs)
		c.note(gop, "sort-group: %s; est %d groups from %d rows", why, estGroups, in.est.Rows)
	}
	est := Estimate{Rows: estGroups, RowBytes: schemaRowBytes(gop.Schema())}
	// Both grouping operators emit groups in ascending group-column order
	// (SortGroup streams its sorted input; HashGroup sorts its table
	// before emitting), so the output is ordered by the group columns'
	// output positions.
	ordering := make([]int, len(groupIdxs))
	for i := range groupIdxs {
		ordering[i] = i
	}
	c.setEst(gop, est.Rows)
	n := node{op: gop, est: est, ordering: ordering, ranges: colRanges(in.ranges, groupIdxs...)}

	if sel.Having != nil {
		rewritten := rewriteAggs(sel.Having, aggCols)
		vp, err := compilePredicate(rewritten, gop.Schema(), c.params)
		if err != nil {
			return node{}, nil, err
		}
		est := n.est
		est.Rows = max(1, int64(float64(est.Rows)*conjSelectivity(rewritten)))
		op := exec.NewFilter(n.op, []exec.VecPredicate{vp})
		c.note(op, "HAVING (vectorized), est %d rows", est.Rows)
		c.setEst(op, est.Rows)
		n = node{op: op, est: est, ordering: n.ordering, ranges: n.ranges}
	}
	return n, aggCols, nil
}

// rewriteAggs replaces aggregate sub-expressions with column references
// into the grouped schema (by their rendered name).
func rewriteAggs(e sqlparse.Expr, aggCols map[string]int) sqlparse.Expr {
	switch v := e.(type) {
	case *sqlparse.AggExpr:
		return &sqlparse.ColumnRef{Name: v.String()}
	case *sqlparse.BinaryExpr:
		return &sqlparse.BinaryExpr{Op: v.Op, L: rewriteAggs(v.L, aggCols), R: rewriteAggs(v.R, aggCols)}
	case *sqlparse.NotExpr:
		return &sqlparse.NotExpr{E: rewriteAggs(v.E, aggCols)}
	default:
		return e
	}
}

// outputName picks the column name for a select item.
func outputName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

// compileProjection evaluates the select list, one expression per output
// column. Column references share the input's vectors, so a pure column
// projection (the common SETM shape) copies nothing and keeps the ordering
// of the surviving leading columns.
func (c *Compiler) compileProjection(sel *sqlparse.Select, in node, aggCols map[string]int) (node, error) {
	inSchema := in.op.Schema()
	var exprs []exec.Expr
	var cols []tuple.Column
	colIdxs := make([]int, 0, len(sel.Items)) // -1 for a computed column
	pureCols := true
	for _, it := range sel.Items {
		if it.Star {
			for i, col := range inSchema.Cols {
				name := col.Name
				if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
					name = name[dot+1:]
				}
				exprs = append(exprs, exec.ColExpr(i))
				colIdxs = append(colIdxs, i)
				cols = append(cols, tuple.Column{Name: name, Kind: col.Kind})
			}
			continue
		}
		expr := rewriteAggs(it.Expr, aggCols)
		if cr, ok := expr.(*sqlparse.ColumnRef); ok {
			idx, err := resolveColumn(inSchema, cr)
			if err != nil {
				return node{}, err
			}
			exprs = append(exprs, exec.ColExpr(idx))
			colIdxs = append(colIdxs, idx)
			cols = append(cols, tuple.Column{Name: outputName(it), Kind: inSchema.Cols[idx].Kind})
			continue
		}
		pureCols = false
		x, err := compileExpr(expr, inSchema, c.params)
		if err != nil {
			return node{}, err
		}
		exprs = append(exprs, x)
		colIdxs = append(colIdxs, -1)
		cols = append(cols, tuple.Column{Name: outputName(it), Kind: tuple.KindInt})
	}
	schema := tuple.NewSchema(cols...)
	op := exec.NewProject(in.op, schema, exprs)
	est := in.est
	est.RowBytes = schemaRowBytes(schema)
	c.setEst(op, est.Rows)
	if pureCols {
		return node{op: op, est: est, ordering: remapOrdering(in.ordering, colIdxs), ranges: colRanges(in.ranges, colIdxs...)}, nil
	}
	return node{op: op, est: est, ranges: colRanges(in.ranges, colIdxs...)}, nil
}

// compileOrderBy sorts the projected output, unless the planner can prove
// the stream is already ordered on the requested keys (the SETM loop's
// ORDER BY clauses all fall out this way once merge joins and grouped
// scans propagate their orderings). Order keys must be visible in the
// output schema, possibly under their pre-projection names.
func (c *Compiler) compileOrderBy(sel *sqlparse.Select, in node, aggCols map[string]int) (node, error) {
	if len(sel.OrderBy) == 0 {
		return in, nil
	}
	schema := in.op.Schema()
	keys := make([]exec.SortKey, 0, len(sel.OrderBy))
	for _, oi := range sel.OrderBy {
		expr := rewriteAggs(oi.Expr, aggCols)
		cr, ok := expr.(*sqlparse.ColumnRef)
		if !ok {
			return node{}, fmt.Errorf("plan: ORDER BY supports column references only, got %s", oi.Expr)
		}
		idx, err := resolveColumn(schema, cr)
		if err != nil {
			// Fall back to the bare name (ORDER BY p.item when the output
			// column is named "item").
			idx = schema.ColIndex(cr.Name)
			if idx < 0 {
				return node{}, err
			}
		}
		keys = append(keys, exec.SortKey{Col: idx, Desc: oi.Desc})
	}
	return c.sortNode(in, keys, "ORDER BY"), nil
}
