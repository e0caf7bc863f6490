// Prepared statements. Prepare parses once (through a process-wide AST
// cache, since statement texts repeat across DB instances in mining runs)
// and Stmt.Exec binds named parameters at execution time. Plans are not
// cached: every execution compiles its own against the catalog as it
// stands, so no plan outlives the tables and orderings it was planned
// against, and concurrent executions never share operator state.

package engine

import (
	"fmt"
	"sync"

	"setm/internal/exec"
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

// Stmt is a prepared statement: parsed once, executable many times with
// different parameter bindings. It is bound to the DB that prepared it.
type Stmt struct {
	db  *DB
	ast sqlparse.Stmt
}

// Prepare parses sql once for repeated execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	ast, err := cachedParse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, ast: ast}, nil
}

// Exec runs the prepared statement with the given parameter binding.
// SELECT and INSERT ... SELECT compile a fresh plan against the catalog as
// it stands.
func (s *Stmt) Exec(params map[string]int64) (*Result, error) {
	return s.db.ExecStmt(s.ast, params)
}

// QueryBatches runs a prepared SELECT and returns the result column-major.
func (s *Stmt) QueryBatches(params map[string]int64) (*tuple.Schema, []*tuple.Batch, error) {
	sel, ok := s.ast.(*sqlparse.Select)
	if !ok {
		return nil, nil, fmt.Errorf("engine: QueryBatches requires a SELECT, got %T", s.ast)
	}
	pl, err := s.db.compile(sel, params)
	if err != nil {
		return nil, nil, err
	}
	batches, err := exec.DrainBatches(pl.Root)
	if err != nil {
		return nil, nil, err
	}
	return pl.Root.Schema(), batches, nil
}
