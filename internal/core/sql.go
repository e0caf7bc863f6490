package core

import (
	"context"
	"fmt"
	"strings"

	"setm/internal/engine"
	"setm/internal/tuple"
)

// SQLConfig tunes the SQL driver.
type SQLConfig struct {
	// TraceSQL, when non-nil, receives every statement before execution;
	// examples use it to show that mining really is running as SQL.
	TraceSQL func(sql string)
}

// MineSQL runs Algorithm SETM by generating the paper's SQL statements
// (Section 4.1) for each iteration and executing them on the relational
// engine. The statements are exactly the paper's, instantiated with
// concrete column lists per k:
//
//	INSERT INTO R'_k
//	SELECT p.trans_id, p.item1, ..., p.item_{k-1}, q.item
//	FROM R_{k-1} p, SALES q
//	WHERE q.trans_id = p.trans_id AND q.item > p.item_{k-1}
//
//	INSERT INTO C_k
//	SELECT p.item1, ..., p.itemk, COUNT(*)
//	FROM R'_k p
//	GROUP BY p.item1, ..., p.itemk
//	HAVING COUNT(*) >= :minsupport
//
//	INSERT INTO R_k
//	SELECT p.trans_id, p.item1, ..., p.itemk
//	FROM R'_k p, C_k q
//	WHERE p.item1 = q.item1 AND ... AND p.itemk = q.itemk
//	ORDER BY p.trans_id, p.item1, ..., p.itemk
//
// After each iteration the consumed intermediates are discarded with DROP
// TABLE — the paper notes R'_k and R_{k-1} are no longer needed once R_k
// exists — so the engine's page store stays bounded across iterations.
// The statements run one after another on one goroutine;
// Options.MaxWorkers is ignored.
func MineSQL(d *Dataset, opts Options, cfg SQLConfig) (*Result, error) {
	s, err := newSQLStepper(d, opts, cfg)
	if err != nil {
		return nil, err
	}
	return runPipeline(context.Background(), d, opts, s, nil, nil)
}

// newSQLStepper creates the engine and bulk-loads SALES.
func newSQLStepper(d *Dataset, opts Options, cfg SQLConfig) (*sqlStepper, error) {
	if err := validate(d, opts); err != nil {
		return nil, err
	}
	var dbOpts []engine.Option
	if opts.MemoryBudget > 0 {
		// One budget knob across drivers: the planner's working-set bound
		// and the external sort's run size both derive from it.
		dbOpts = append(dbOpts, engine.WithMemBudget(opts.MemoryBudget))
	}
	s := &sqlStepper{cfg: cfg, db: engine.New(dbOpts...)}
	// Bulk-load SALES before the pipeline starts timing iteration 1, so
	// Stats[0].Duration covers the C_1 SQL alone — matching what the other
	// drivers charge to their first iteration. The load moves columns end
	// to end, decoded from the dataset's packed memo in one pass: it is
	// already sorted by (trans_id, item), and the declared ordering lets
	// the planner skip the paper-mandated sorts the storage layout already
	// satisfies.
	memo := d.packed()
	salesSchema := tuple.IntSchema("trans_id", "item")
	batch := tuple.NewBatch(salesSchema)
	batch.Grow(len(memo.rows))
	for _, r := range memo.rows {
		batch.Cols[0].I = append(batch.Cols[0].I, int64(memo.tids[r.Tid]^tidFlip))
		batch.Cols[1].I = append(batch.Cols[1].I, memo.dict.items[r.Key])
		batch.BumpRow()
	}
	if err := s.db.LoadTableBatch("sales", salesSchema, batch, []int{0, 1}); err != nil {
		return nil, err
	}
	s.salesRows = int64(batch.Len())
	return s, nil
}

// sqlStepper is the relational-engine substrate of the SETM pipeline:
// every step executes the paper's SQL statements on the bundled engine.
type sqlStepper struct {
	cfg SQLConfig
	db  *engine.DB

	salesRows int64  // |SALES|, loaded before the pipeline starts
	prevR     string // table name of R_{k-1} ("sales" for k=2)
}

// sqlPlan is the plan every SQL pass reports: the paper's statements on
// the budget-aware relational engine, one at a time on one goroutine.
var sqlPlan = IterPlan{Kernel: KernelSQL, Regime: RegimeSpilled, Workers: 1}

// run executes one statement with the :minsupport parameter bound. The
// engine's shared AST cache makes repeated MineSQL calls in one process
// skip parsing.
func (s *sqlStepper) run(sql string, minSup int64) (*engine.Result, error) {
	if s.cfg.TraceSQL != nil {
		s.cfg.TraceSQL(sql)
	}
	st, err := s.db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Exec(map[string]int64{"minsupport": minSup})
}

func (s *sqlStepper) init(minSup int64) ([]ItemsetCount, IterationStat, error) {
	// C_1. (SALES was bulk-loaded by MineSQL; the mining itself is pure SQL.)
	if _, err := s.run("CREATE TABLE c1 (item1 INT, cnt INT)", minSup); err != nil {
		return nil, IterationStat{}, err
	}
	if _, err := s.run(`INSERT INTO c1
		SELECT r1.item, COUNT(*)
		FROM sales r1
		GROUP BY r1.item
		HAVING COUNT(*) >= :minsupport`, minSup); err != nil {
		return nil, IterationStat{}, err
	}
	c1, err := readCounts(s.db, 1, minSup)
	if err != nil {
		return nil, IterationStat{}, err
	}

	// R_1: the paper uses SALES itself, already sorted by (trans_id, item).
	s.prevR = "sales"
	// C_1 is fully consumed (read out above); drop it like every later C_k.
	if _, err := s.run("DROP TABLE c1", minSup); err != nil {
		return nil, IterationStat{}, err
	}
	return c1, IterationStat{RPrimeRows: s.salesRows, RRows: s.salesRows, Plan: sqlPlan}, nil
}

func (s *sqlStepper) step(k int, minSup int64) ([]ItemsetCount, IterationStat, error) {
	rp := fmt.Sprintf("rp%d", k)
	ck := fmt.Sprintf("c%d", k)
	rk := fmt.Sprintf("r%d", k)

	// Column helper: item1..itemk.
	itemCols := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("item%d", i+1)
		}
		return out
	}
	declare := func(cols []string, extra string) string {
		parts := make([]string, 0, len(cols)+2)
		parts = append(parts, "trans_id INT")
		for _, c := range cols {
			parts = append(parts, c+" INT")
		}
		if extra != "" {
			parts = parts[1:]
			parts = append(parts, extra)
		}
		return strings.Join(parts, ", ")
	}

	cols := itemCols(k)
	prevCols := itemCols(k - 1)
	// The sales table's item column is named "item"; R_{k-1} for k>2
	// names its columns item1..item_{k-1}. For k=2 with prevR = sales,
	// "item1" must read "item".
	prevColRef := func(i int) string { // 1-based
		if s.prevR == "sales" {
			return "item"
		}
		return prevCols[i-1]
	}

	// CREATE + fill R'_k.
	if _, err := s.run(fmt.Sprintf("CREATE TABLE %s (%s)", rp, declare(cols, "")), minSup); err != nil {
		return nil, IterationStat{}, err
	}
	sel := make([]string, 0, k+1)
	sel = append(sel, "p.trans_id")
	for i := 1; i < k; i++ {
		sel = append(sel, "p."+prevColRef(i))
	}
	sel = append(sel, "q.item")
	insRP := fmt.Sprintf(`INSERT INTO %s
		SELECT %s
		FROM %s p, sales q
		WHERE q.trans_id = p.trans_id AND q.item > p.%s`,
		rp, strings.Join(sel, ", "), s.prevR, prevColRef(k-1))
	rpRes, err := s.run(insRP, minSup)
	if err != nil {
		return nil, IterationStat{}, err
	}

	// CREATE + fill C_k.
	if _, err := s.run(fmt.Sprintf("CREATE TABLE %s (%s)", ck, declare(cols, "cnt INT")), minSup); err != nil {
		return nil, IterationStat{}, err
	}
	groupList := "p." + strings.Join(cols, ", p.")
	insCK := fmt.Sprintf(`INSERT INTO %s
		SELECT %s, COUNT(*)
		FROM %s p
		GROUP BY %s
		HAVING COUNT(*) >= :minsupport`,
		ck, groupList, rp, groupList)
	if _, err := s.run(insCK, minSup); err != nil {
		return nil, IterationStat{}, err
	}
	counts, err := readCounts(s.db, k, minSup)
	if err != nil {
		return nil, IterationStat{}, err
	}

	// CREATE + fill R_k (filter R'_k by C_k, sorted).
	if _, err := s.run(fmt.Sprintf("CREATE TABLE %s (%s)", rk, declare(cols, "")), minSup); err != nil {
		return nil, IterationStat{}, err
	}
	eqs := make([]string, len(cols))
	for i, c := range cols {
		eqs[i] = fmt.Sprintf("p.%s = q.%s", c, c)
	}
	insRK := fmt.Sprintf(`INSERT INTO %s
		SELECT p.trans_id, %s
		FROM %s p, %s q
		WHERE %s
		ORDER BY p.trans_id, %s`,
		rk, groupList, rp, ck, strings.Join(eqs, " AND "), groupList)
	rkRes, err := s.run(insRK, minSup)
	if err != nil {
		return nil, IterationStat{}, err
	}

	// R'_k, C_k, and R_{k-1} are fully consumed once R_k is materialized
	// (the counts were read into memory by readCounts); drop them so the
	// store's page footprint stays bounded — DROP returns the pages to
	// the pool's free list. SALES survives: every iteration's merge-scan
	// extension joins against it.
	for _, table := range []string{rp, ck} {
		if _, err := s.run("DROP TABLE "+table, minSup); err != nil {
			return nil, IterationStat{}, err
		}
	}
	if s.prevR != "sales" {
		if _, err := s.run("DROP TABLE "+s.prevR, minSup); err != nil {
			return nil, IterationStat{}, err
		}
	}

	s.prevR = rk
	return counts, IterationStat{RPrimeRows: rpRes.RowsAffected, RRows: rkRes.RowsAffected, Plan: sqlPlan}, nil
}

// countsQuery reads C_k back in canonical order. (C_k is stored in group
// order, so the planner proves the ORDER BY redundant.)
func countsQuery(k int) string {
	cols := make([]string, k)
	for i := range cols {
		cols[i] = fmt.Sprintf("item%d", i+1)
	}
	list := strings.Join(cols, ", ")
	return fmt.Sprintf("SELECT %s, cnt FROM c%d ORDER BY %s", list, k, list)
}

// readCounts loads C_k from the engine into the canonical sorted form,
// pulling column batches instead of materializing tuples.
func readCounts(db *engine.DB, k int, minSup int64) ([]ItemsetCount, error) {
	_, batches, err := db.QueryBatches(countsQuery(k), nil)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range batches {
		total += b.Len()
	}
	out := make([]ItemsetCount, 0, total)
	// One backing array for all patterns of this C_k, sliced per row.
	flat := make([]Item, 0, total*k)
	for _, b := range batches {
		n := b.Len()
		for i := 0; i < n; i++ {
			start := len(flat)
			for c := 0; c < k; c++ {
				flat = append(flat, b.Cols[c].I[i])
			}
			out = append(out, ItemsetCount{Items: flat[start : start+k : start+k], Count: b.Cols[k].I[i]})
		}
	}
	return out, nil
}
