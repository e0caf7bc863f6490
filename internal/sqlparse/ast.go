package sqlparse

import (
	"fmt"

	"setm/internal/tuple"
)

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (col INT, ...).
type CreateTable struct {
	Name        string
	IfNotExists bool
	Cols        []tuple.Column
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// DeleteAll is DELETE FROM name (unqualified truncation; the paper's loop
// recreates worktables each iteration).
type DeleteAll struct {
	Name string
}

// Insert is INSERT INTO name [(cols)] VALUES (...),... or INSERT INTO name
// [(cols)] SELECT ....
type Insert struct {
	Table  string
	Cols   []string // optional explicit column list
	Rows   [][]Expr // VALUES form
	Select *Select  // INSERT ... SELECT form
}

// Select is a SELECT query.
type Select struct {
	Items   []SelectItem
	From    []TableRef
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// TableRef names a table in FROM with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Binding returns the name the table is referenced by: alias if given.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Explain is EXPLAIN [ANALYZE] SELECT ...: return the plan instead of the
// query results. With Analyze set the statement is also executed and each
// plan operator reports actual vs estimated rows.
type Explain struct {
	Select  *Select
	Analyze bool
}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*DeleteAll) stmt()   {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Explain) stmt()     {}

// Expr is any SQL expression.
type Expr interface {
	expr()
	// String renders the expression roughly as written, used in error
	// messages and as default output column names.
	String() string
}

// ColumnRef is [qualifier.]name.
type ColumnRef struct {
	Qualifier string // table alias; empty if unqualified
	Name      string
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
}

// Param is a named parameter :name.
type Param struct {
	Name string
}

// AggFunc enumerates aggregate function names.
type AggFunc string

// Aggregate function names.
const (
	FuncCount AggFunc = "COUNT"
	FuncSum   AggFunc = "SUM"
	FuncMin   AggFunc = "MIN"
	FuncMax   AggFunc = "MAX"
)

// AggExpr is COUNT(*) or SUM/MIN/MAX(col).
type AggExpr struct {
	Func AggFunc
	Star bool // COUNT(*)
	Arg  Expr // nil when Star
}

// BinaryOp enumerates binary operators.
type BinaryOp string

// Binary operators.
const (
	OpEq  BinaryOp = "="
	OpNe  BinaryOp = "<>"
	OpLt  BinaryOp = "<"
	OpLe  BinaryOp = "<="
	OpGt  BinaryOp = ">"
	OpGe  BinaryOp = ">="
	OpAnd BinaryOp = "AND"
	OpOr  BinaryOp = "OR"
	OpAdd BinaryOp = "+"
	OpSub BinaryOp = "-"
	OpMul BinaryOp = "*"
	OpDiv BinaryOp = "/"
)

// BinaryExpr applies Op to L and R.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	E Expr
}

func (*ColumnRef) expr()  {}
func (*IntLit) expr()     {}
func (*Param) expr()      {}
func (*AggExpr) expr()    {}
func (*BinaryExpr) expr() {}
func (*NotExpr) expr()    {}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

func (i *IntLit) String() string { return fmt.Sprintf("%d", i.Value) }
func (p *Param) String() string  { return ":" + p.Name }

func (a *AggExpr) String() string {
	if a.Star {
		return string(a.Func) + "(*)"
	}
	return string(a.Func) + "(" + a.Arg.String() + ")"
}

func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + string(b.Op) + " " + b.R.String() + ")"
}

func (n *NotExpr) String() string { return "NOT " + n.E.String() }

// SplitConjuncts flattens a predicate into its AND-ed conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// WalkColumns calls fn for every column reference in e.
func WalkColumns(e Expr, fn func(*ColumnRef)) {
	switch v := e.(type) {
	case *ColumnRef:
		fn(v)
	case *BinaryExpr:
		WalkColumns(v.L, fn)
		WalkColumns(v.R, fn)
	case *NotExpr:
		WalkColumns(v.E, fn)
	case *AggExpr:
		if v.Arg != nil {
			WalkColumns(v.Arg, fn)
		}
	}
}

// HasAggregate reports whether e contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *AggExpr:
			found = true
		case *BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *NotExpr:
			walk(v.E)
		}
	}
	walk(e)
	return found
}
