// Prepared statements and the plan cache. Prepare parses once (through a
// process-wide AST cache, since statement texts repeat across DB instances
// in mining runs) and Stmt.Exec binds named parameters at execution time.
// Compiled SELECT plans are cached per DB, keyed on the statement text,
// the bound parameter values (parameters compile into plans as constants),
// the catalog's schema epoch, and the calibration version — any schema
// change or re-calibration silently invalidates by key mismatch.

package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"setm/internal/exec"
	"setm/internal/plan"
	"setm/internal/sqlparse"
	"setm/internal/tuple"
)

// astCacheCap bounds the process-wide text→AST cache; astCache evicts an
// arbitrary entry above it. SETM runs cycle through a few dozen distinct
// statement shapes, so the cap is generous.
const astCacheCap = 512

var astCache = struct {
	sync.Mutex
	m map[string]sqlparse.Stmt
}{m: make(map[string]sqlparse.Stmt)}

// cachedParse parses sql through the process-wide AST cache. Cached ASTs
// come from sqlparse.Parse (which owns its memory, unlike pooled parsers)
// and are shared read-only: the planner never mutates them.
func cachedParse(sql string) (sqlparse.Stmt, error) {
	astCache.Lock()
	st, ok := astCache.m[sql]
	astCache.Unlock()
	if ok {
		return st, nil
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	astCache.Lock()
	if len(astCache.m) >= astCacheCap {
		for k := range astCache.m {
			delete(astCache.m, k)
			break
		}
	}
	astCache.m[sql] = st
	astCache.Unlock()
	return st, nil
}

// planCacheCap bounds the per-DB compiled-plan cache.
const planCacheCap = 64

// planCache holds compiled plans for reuse. take removes the entry while
// it executes (operator trees hold run state, so a plan must never run in
// two goroutines at once); the executor puts it back afterwards.
type planCache struct {
	mu sync.Mutex
	m  map[string]*plan.Plan
}

func (pc *planCache) take(key string) *plan.Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pl := pc.m[key]
	if pl != nil {
		delete(pc.m, key)
	}
	return pl
}

func (pc *planCache) put(key string, pl *plan.Plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.m == nil {
		pc.m = make(map[string]*plan.Plan)
	}
	if len(pc.m) >= planCacheCap {
		for k := range pc.m {
			delete(pc.m, k)
			break
		}
	}
	pc.m[key] = pl
}

// Stmt is a prepared statement: parsed once, executable many times with
// different parameter bindings. It is bound to the DB that prepared it.
type Stmt struct {
	db   *DB
	text string
	ast  sqlparse.Stmt
}

// Prepare parses sql once for repeated execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	ast, err := cachedParse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: sql, ast: ast}, nil
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.text }

// paramsKey canonicalizes a parameter binding for the plan-cache key:
// parameter values compile into plans as constants, so they identify the
// plan as much as the text does.
func paramsKey(params map[string]int64) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d;", k, params[k])
	}
	return b.String()
}

// planKeyPrefix is the validity part of a plan-cache key: schema epoch and
// calibration version. A key minted under an older epoch simply never
// matches again.
func (db *DB) planKeyPrefix(params map[string]int64) string {
	return fmt.Sprintf("%d|%d|%s", db.cat.Epoch(), db.calibVer, paramsKey(params))
}

// planFor returns a cached plan for (text, params) or compiles one. The
// caller executes it and hands it back via planDone with the same prefix.
func (db *DB) planFor(text string, sel *sqlparse.Select, params map[string]int64, prefix string) (*plan.Plan, error) {
	if pl := db.plans.take(prefix + "|" + text); pl != nil {
		return pl, nil
	}
	return db.compiler(plan.IntParams(params)).CompilePlan(sel)
}

// planDone returns an executed plan to the cache — unless the epoch or
// calibration moved during execution (INSERT bumps the epoch itself), in
// which case the plan is stale and dropped.
func (db *DB) planDone(text string, params map[string]int64, prefix string, pl *plan.Plan) {
	if db.planKeyPrefix(params) == prefix {
		db.plans.put(prefix+"|"+text, pl)
	}
}

// Exec runs the prepared statement with the given parameter binding.
// SELECT and INSERT ... SELECT go through the plan cache; DDL and VALUES
// inserts execute directly.
func (s *Stmt) Exec(params map[string]int64) (*Result, error) {
	db := s.db
	switch st := s.ast.(type) {
	case *sqlparse.Select:
		prefix := db.planKeyPrefix(params)
		pl, err := db.planFor(s.text, st, params, prefix)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(pl.Root)
		if err != nil {
			return nil, err
		}
		db.planDone(s.text, params, prefix, pl)
		return &Result{Schema: pl.Root.Schema(), Rows: rows}, nil

	case *sqlparse.Insert:
		if st.Select == nil {
			return db.ExecStmt(st, params)
		}
		prefix := db.planKeyPrefix(params)
		pl, err := db.planFor(s.text, st.Select, params, prefix)
		if err != nil {
			return nil, err
		}
		res, err := db.execInsertSelect(st, pl)
		if err != nil {
			return nil, err
		}
		db.planDone(s.text, params, prefix, pl)
		return res, nil

	default:
		return db.ExecStmt(s.ast, params)
	}
}

// QueryBatches runs a prepared SELECT and returns the result column-major,
// through the plan cache.
func (s *Stmt) QueryBatches(params map[string]int64) (*tuple.Schema, []*tuple.Batch, error) {
	sel, ok := s.ast.(*sqlparse.Select)
	if !ok {
		return nil, nil, fmt.Errorf("engine: QueryBatches requires a SELECT, got %T", s.ast)
	}
	db := s.db
	prefix := db.planKeyPrefix(params)
	pl, err := db.planFor(s.text, sel, params, prefix)
	if err != nil {
		return nil, nil, err
	}
	batches, err := exec.DrainBatches(pl.Root)
	if err != nil {
		return nil, nil, err
	}
	db.planDone(s.text, params, prefix, pl)
	return pl.Root.Schema(), batches, nil
}
