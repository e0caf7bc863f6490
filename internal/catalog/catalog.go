// Package catalog tracks the named tables of an engine instance. Table
// names are case-insensitive, following SQL identifier rules. The catalog
// owns no I/O of its own: tables are heap files in the engine's shared
// buffer pool.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// Table is one named relation.
type Table struct {
	Name string
	File *hp.File
	// OrderedBy lists column indexes the stored rows are known to be
	// sorted by (ascending, lexicographically); nil when unknown. The
	// engine sets it when a table is filled by INSERT ... SELECT with a
	// known output ordering or bulk-loaded from sorted data, and the
	// cost-based planner uses it to skip provably redundant sorts — the
	// SQL-level counterpart of the packed engine's sortedness fast path.
	OrderedBy []int
}

// Catalog maps names to tables.
type Catalog struct {
	pool   *storage.Pool
	tables map[string]*Table // key: lower-cased name
}

// New returns an empty catalog allocating tables in pool.
func New(pool *storage.Pool) *Catalog {
	return &Catalog{pool: pool, tables: make(map[string]*Table)}
}

// Create makes a new empty table. It fails if the name is taken.
func (c *Catalog) Create(name string, schema *tuple.Schema) (*Table, error) {
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	f, err := hp.Create(c.pool, schema)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, File: f}
	c.tables[key] = t
	return t, nil
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no such table %q", name)
	}
	return t, nil
}

// Has reports whether the table exists.
func (c *Catalog) Has(name string) bool {
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// Drop removes the table from the catalog and returns its pages to the
// buffer pool's free list, so dropped intermediates (SETM's R'_k and
// R_{k-1}) do not grow the store: engine memory stays bounded across
// mining iterations.
func (c *Catalog) Drop(name string) error {
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: no such table %q", name)
	}
	delete(c.tables, key)
	t.File.Free()
	return nil
}

// Truncate replaces the table's heap file with a fresh empty one, keeping
// the schema and freeing the old pages. This implements DELETE FROM t (no
// WHERE).
func (c *Catalog) Truncate(name string) error {
	t, err := c.Get(name)
	if err != nil {
		return err
	}
	f, err := hp.Create(c.pool, t.File.Schema())
	if err != nil {
		return err
	}
	t.File.Free()
	t.File = f
	t.OrderedBy = nil
	return nil
}

// Replace swaps in a pre-built heap file under the given name, creating the
// entry if needed. SETM's loop uses this to install each iteration's sorted
// R_k without copying tuples.
func (c *Catalog) Replace(name string, f *hp.File) {
	key := strings.ToLower(name)
	if t, ok := c.tables[key]; ok {
		t.File.Free() // reclaim the superseded file, as Drop/Truncate do
		t.File = f
		t.OrderedBy = nil
		return
	}
	c.tables[key] = &Table{Name: name, File: f}
}

// Names returns the sorted table names (for introspection and tests).
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
