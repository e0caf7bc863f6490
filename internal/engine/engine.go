// Package engine is the SQL facade of the relational micro-engine: it owns
// a page store, buffer pool, and catalog, and executes parsed statements.
// It is the substrate on which the paper's thesis — "at least some aspects
// of data mining can be carried out by using general query languages such
// as SQL" — is demonstrated: the SQL SETM driver feeds the paper's queries
// through this engine verbatim.
package engine

import (
	"fmt"
	"io"
	"strings"

	"setm/internal/catalog"
	"setm/internal/exec"
	hp "setm/internal/heap"
	"setm/internal/plan"
	"setm/internal/sqlparse"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// DefaultPoolFrames is the buffer-pool capacity of every DB, in 4 KB
// frames. Tables are heap files, which take no frame, so the capacity
// only sets the external sort's merge fan-in (xsort.FanIn).
const DefaultPoolFrames = 1024

// DB is one engine instance.
type DB struct {
	store *storage.MemStore
	pool  *storage.Pool
	cat   *catalog.Catalog

	// memBudget bounds the planner's in-memory working set per sort or
	// hash build (0 = plan.DefaultMemBudget); larger inputs spill, in runs
	// of this size.
	memBudget int64
}

// Option configures a DB.
type Option func(*DB)

// WithMemBudget bounds the planner's in-memory working set per sort or
// hash build; estimates above it plan external sorts, whose runs are this
// size (or reject hash builds). Zero keeps the planner default.
func WithMemBudget(n int64) Option { return func(db *DB) { db.memBudget = n } }

// New creates an empty database.
func New(opts ...Option) *DB {
	store := storage.NewMemStore()
	pool := storage.NewPool(store, DefaultPoolFrames)
	db := &DB{store: store, pool: pool, cat: catalog.New(pool)}
	for _, o := range opts {
		o(db)
	}
	return db
}

// Pool exposes the buffer pool (for I/O statistics).
func (db *DB) Pool() *storage.Pool { return db.pool }

// Catalog exposes the table catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Result is the outcome of one statement.
type Result struct {
	// Schema and Rows are set for SELECT statements: one []int64 per row,
	// in schema order.
	Schema *tuple.Schema
	Rows   [][]int64
	// Plan is set for EXPLAIN [ANALYZE]: one line per operator, then a
	// summary line, each ending in a newline.
	Plan string
	// RowsAffected counts inserted rows for INSERT.
	RowsAffected int64
}

// Exec parses and runs a single SQL statement. params supplies values for
// named parameters such as :minsupport. Parsing goes through the shared
// AST cache, so repeated texts parse once.
func (db *DB) Exec(sql string, params map[string]int64) (*Result, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Exec(params)
}

// MustExec is Exec that panics on error; intended for tests and examples.
func (db *DB) MustExec(sql string, params map[string]int64) *Result {
	r, err := db.Exec(sql, params)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecScript runs a semicolon-separated sequence of statements, returning
// the result of the final one.
func (db *DB) ExecScript(sql string, params map[string]int64) (*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		last, err = db.ExecStmt(st, params)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt runs one parsed statement.
func (db *DB) ExecStmt(st sqlparse.Stmt, params map[string]int64) (*Result, error) {
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		if s.IfNotExists && db.cat.Has(s.Name) {
			return &Result{}, nil
		}
		if _, err := db.cat.Create(s.Name, tuple.NewSchema(s.Cols...)); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *sqlparse.DropTable:
		if s.IfExists && !db.cat.Has(s.Name) {
			return &Result{}, nil
		}
		if err := db.cat.Drop(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *sqlparse.DeleteAll:
		if err := db.cat.Truncate(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *sqlparse.Insert:
		return db.execInsert(s, params)

	case *sqlparse.Select:
		pl, err := db.compile(s, params)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(pl.Root)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: pl.Root.Schema(), Rows: rows}, nil

	case *sqlparse.Explain:
		pl, err := db.compile(s.Select, params)
		if err != nil {
			return nil, err
		}
		rendered := pl.Explain()
		var actual int64 = -1
		if s.Analyze {
			// Execute the plan to fill the per-operator actual-row counters,
			// then render with actual-vs-estimated annotations.
			batches, err := exec.DrainBatches(pl.Root)
			if err != nil {
				return nil, err
			}
			actual = 0
			for _, b := range batches {
				actual += int64(b.Len())
			}
			rendered = pl.ExplainAnalyzed()
		}
		summary := fmt.Sprintf("estimated: %d rows", pl.Est.Rows)
		if s.Analyze {
			summary = fmt.Sprintf("actual: %d rows; %s", actual, summary)
		}
		return &Result{Plan: rendered + summary + "\n"}, nil

	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// compile plans sel against the catalog as it stands.
func (db *DB) compile(sel *sqlparse.Select, p plan.Params) (*plan.Plan, error) {
	c := plan.NewCompiler(db.cat, db.pool, p)
	c.MemBudget = db.memBudget
	return c.CompilePlan(sel)
}

func (db *DB) execInsert(s *sqlparse.Insert, p plan.Params) (*Result, error) {
	tbl, err := db.cat.Get(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.File.Schema()
	if err := validateInsertCols(s, schema); err != nil {
		return nil, err
	}

	if s.Select != nil {
		pl, err := db.compile(s.Select, p)
		if err != nil {
			return nil, err
		}
		return insertSelect(tbl, pl)
	}

	// Every row is evaluated before any is appended, so a row that fails
	// leaves the table as it was.
	b := tuple.NewBatch(schema)
	for _, row := range s.Rows {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("engine: INSERT row arity %d does not match table %q arity %d",
				len(row), s.Table, schema.Len())
		}
		for i, e := range row {
			v, err := plan.EvalConst(e, p)
			if err != nil {
				return nil, err
			}
			b.Cols[i].I = append(b.Cols[i].I, v)
		}
		b.BumpRow()
	}
	tbl.OrderedBy = nil
	if err := tbl.File.AppendBatch(b); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(b.Len())}, nil
}

// validateInsertCols checks an explicit INSERT column list: it must cover
// the whole schema in order; the engine does not support partial inserts
// (no NULLs in this model).
func validateInsertCols(s *sqlparse.Insert, schema *tuple.Schema) error {
	if len(s.Cols) == 0 {
		return nil
	}
	if len(s.Cols) != schema.Len() {
		return fmt.Errorf("engine: INSERT column list must cover all %d columns", schema.Len())
	}
	for i, c := range s.Cols {
		if !strings.EqualFold(c, schema.Cols[i].Name) {
			return fmt.Errorf("engine: INSERT column %d is %q, table has %q", i, c, schema.Cols[i].Name)
		}
	}
	return nil
}

// insertSelect appends the rows of a compiled SELECT plan to tbl.
func insertSelect(tbl *catalog.Table, pl *plan.Plan) (*Result, error) {
	op := pl.Root
	if got, want := op.Schema().Len(), tbl.File.Schema().Len(); got != want {
		return nil, fmt.Errorf("engine: INSERT SELECT arity %d does not match table %q arity %d",
			got, tbl.Name, want)
	}
	wasEmpty := tbl.File.Rows() == 0
	// The ordering claim goes before the first append: a fill that fails
	// part-way keeps the rows it had appended.
	tbl.OrderedBy = nil
	n, err := fill(tbl.File, op)
	if err != nil {
		return nil, err
	}
	// A fresh fill from a stream with a known output ordering makes the
	// table provably sorted, which later plans exploit to skip sorts.
	if wasEmpty && len(pl.Ordering) > 0 {
		tbl.OrderedBy = pl.Ordering
	}
	return &Result{RowsAffected: n}, nil
}

// fill appends every row op produces to f and returns their number.
func fill(f *hp.File, op exec.Operator) (n int64, err error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer func() {
		if cerr := op.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := f.AppendBatch(b); err != nil {
			return n, err
		}
		n += int64(b.Len())
	}
}

// LoadTableBatch creates (or replaces) a table from a column-major batch,
// encoding column vectors straight into pages. orderedBy (may be nil)
// declares column indexes the rows are sorted by; the planner uses the
// declaration to skip provably redundant sorts.
func (db *DB) LoadTableBatch(name string, schema *tuple.Schema, b *tuple.Batch, orderedBy []int) error {
	f, err := hp.Create(db.pool, schema)
	if err != nil {
		return err
	}
	if err := f.AppendBatch(b); err != nil {
		return err
	}
	db.cat.Replace(name, f)
	if t, err := db.cat.Get(name); err == nil {
		t.OrderedBy = append([]int{}, orderedBy...)
	}
	return nil
}

// QueryBatches runs a SELECT and returns the result as dense column-major
// batches, avoiding per-row tuple materialization. The batches are copies,
// safe to keep. It goes through the prepared-statement path (AST cache).
func (db *DB) QueryBatches(sql string, params map[string]int64) (*tuple.Schema, []*tuple.Batch, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, nil, err
	}
	return st.QueryBatches(params)
}
