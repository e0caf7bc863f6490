package sqlparse

import (
	"math/rand"
	"strings"
	"testing"

	"setm/internal/tuple"
)

func parseSelect(t *testing.T, src string) *Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, st)
	}
	return sel
}

func TestTokenize(t *testing.T) {
	toks, err := tokenize("SELECT r1.item, COUNT(*) FROM sales r1 -- comment\nWHERE x >= :minsupport")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Errorf("first token = %v", toks[0])
	}
	last := toks[len(toks)-2]
	if last.Kind != TokParam || last.Text != "minsupport" {
		t.Errorf("param token = %v", last)
	}
	_ = kinds
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE sales (trans_id INT, item INT, qty integer)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "sales" || len(ct.Cols) != 3 {
		t.Fatalf("CreateTable = %+v", ct)
	}
	for _, c := range ct.Cols {
		if c.Kind != tuple.KindInt {
			t.Errorf("%s kind = %v", c.Name, c.Kind)
		}
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	st, err := Parse("CREATE TABLE IF NOT EXISTS t (a INT)")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*CreateTable).IfNotExists {
		t.Error("IfNotExists not set")
	}
}

func TestParseDropAndDelete(t *testing.T) {
	st, err := Parse("DROP TABLE IF EXISTS r2")
	if err != nil {
		t.Fatal(err)
	}
	dt := st.(*DropTable)
	if dt.Name != "r2" || !dt.IfExists {
		t.Errorf("DropTable = %+v", dt)
	}
	st, err = Parse("DELETE FROM r2")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DeleteAll).Name != "r2" {
		t.Errorf("DeleteAll = %+v", st)
	}
}

func TestParseInsertValues(t *testing.T) {
	st, err := Parse("INSERT INTO sales VALUES (10, 1), (10, 2), (20, 3)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Table != "sales" || len(ins.Rows) != 3 || len(ins.Rows[0]) != 2 {
		t.Fatalf("Insert = %+v", ins)
	}
	if ins.Rows[2][1].(*IntLit).Value != 3 {
		t.Errorf("last value = %v", ins.Rows[2][1])
	}
}

func TestParseInsertSelect(t *testing.T) {
	// The paper's C_k generation query, verbatim structure.
	src := `INSERT INTO c1
	        SELECT r1.item, COUNT(*)
	        FROM sales r1
	        GROUP BY r1.item
	        HAVING COUNT(*) >= :minsupport`
	st, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Select == nil {
		t.Fatal("INSERT ... SELECT did not capture query")
	}
	sel := ins.Select
	if len(sel.Items) != 2 {
		t.Fatalf("select items = %d", len(sel.Items))
	}
	if _, ok := sel.Items[1].Expr.(*AggExpr); !ok {
		t.Errorf("second item = %T", sel.Items[1].Expr)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("GROUP BY / HAVING missing")
	}
	hv := sel.Having.(*BinaryExpr)
	if hv.Op != OpGe {
		t.Errorf("having op = %v", hv.Op)
	}
	if _, ok := hv.R.(*Param); !ok {
		t.Errorf("having rhs = %T", hv.R)
	}
}

func TestParsePaperJoinQuery(t *testing.T) {
	// The SETM extension query from Section 4.1.
	src := `SELECT p.trans_id, p.item1, q.item
	        FROM r1 p, sales q
	        WHERE q.trans_id = p.trans_id AND q.item > p.item1
	        ORDER BY p.trans_id, p.item1, q.item`
	sel := parseSelect(t, src)
	if len(sel.From) != 2 {
		t.Fatalf("from = %+v", sel.From)
	}
	if sel.From[0].Binding() != "p" || sel.From[1].Binding() != "q" {
		t.Errorf("bindings = %s, %s", sel.From[0].Binding(), sel.From[1].Binding())
	}
	conj := SplitConjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if len(sel.OrderBy) != 3 {
		t.Errorf("order by = %d", len(sel.OrderBy))
	}
}

func TestParseSelfJoinWithInequality(t *testing.T) {
	// Pattern generation pair query from Section 2.
	src := `SELECT r1.trans_id, r1.item, r2.item
	        FROM sales r1, sales r2
	        WHERE r1.trans_id = r2.trans_id AND r1.item <> r2.item`
	sel := parseSelect(t, src)
	conj := SplitConjuncts(sel.Where)
	ne := conj[1].(*BinaryExpr)
	if ne.Op != OpNe {
		t.Errorf("op = %v", ne.Op)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top = %v", sel.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Errorf("AND should bind tighter than OR: %v", sel.Where)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a + b * 2 FROM t")
	add := sel.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top op = %v", add.Op)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != OpMul {
		t.Error("* should bind tighter than +")
	}
}

func TestParenOverridesPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT (a + b) * 2 FROM t")
	mul := sel.Items[0].Expr.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("top op = %v", mul.Op)
	}
}

func TestAliasForms(t *testing.T) {
	sel := parseSelect(t, "SELECT x AS y, z w FROM t AS u")
	if sel.Items[0].Alias != "y" || sel.Items[1].Alias != "w" {
		t.Errorf("aliases = %+v", sel.Items)
	}
	if sel.From[0].Binding() != "u" {
		t.Errorf("table alias = %v", sel.From[0])
	}
}

// TestRejectsDeletedConstructs pins the positioned error each construct
// outside the grammar fails with: the reserved words where they stand, the
// quote as a character no token starts with.
func TestRejectsDeletedConstructs(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"CREATE TABLE t (name VARCHAR(10))", "sql:1:22: expected column type, found VARCHAR"},
		{"CREATE TABLE t (a INT, s string)", "sql:1:26: expected column type, found STRING"},
		{"SELECT a FROM t WHERE a = 'x'", `sql:1:27: unexpected character '\''`},
		{"SELECT DISTINCT a FROM t", "sql:1:8: expected expression, found DISTINCT"},
		{"SELECT trans_id FROM sales LIMIT 3", "sql:1:28: unexpected LIMIT after statement"},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %q", c.src, err, c.want)
		}
		if _, err := ParseScript(c.src); err == nil {
			t.Errorf("ParseScript(%q) succeeded", c.src)
		}
	}
}

// TestSelectStarDistinctLimit: a star select list parses; DISTINCT and
// LIMIT are reserved words no production takes, so they fail as a
// modifier, as a clause and as a name.
func TestSelectStarDistinctLimit(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t")
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Errorf("SELECT * = %+v", sel.Items)
	}
	for _, src := range []string{
		"SELECT DISTINCT * FROM t", "SELECT * FROM t LIMIT 5",
		"SELECT limit FROM t", "SELECT a FROM distinct", "SELECT a FROM t varchar",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestOrderByDesc(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t ORDER BY a DESC, b ASC, c")
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc || sel.OrderBy[2].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
}

func TestNotAndNe(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE NOT a <> 1")
	if _, ok := sel.Where.(*NotExpr); !ok {
		t.Errorf("where = %T", sel.Where)
	}
	// != is normalized to <>
	sel2 := parseSelect(t, "SELECT a FROM t WHERE a != 1")
	if sel2.Where.(*BinaryExpr).Op != OpNe {
		t.Error("!= not normalized")
	}
}

func TestUnaryMinus(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a > -5")
	cmp := sel.Where.(*BinaryExpr)
	sub := cmp.R.(*BinaryExpr)
	if sub.Op != OpSub || sub.L.(*IntLit).Value != 0 || sub.R.(*IntLit).Value != 5 {
		t.Errorf("unary minus = %v", cmp.R)
	}
}

func TestParseScriptMultipleStatements(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO t",
		"SELECT a FROM t WHERE",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t; garbage",
		"SELECT a FROM t WHERE a @ 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestErrorsIncludePosition(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "sql:2:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestExprStringRendering(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*) FROM t WHERE a.b >= :p AND c = -7")
	if got := sel.Items[0].Expr.String(); got != "COUNT(*)" {
		t.Errorf("agg string = %q", got)
	}
	ws := sel.Where.String()
	for _, want := range []string{"a.b", ":p", "(0 - 7)", ">="} {
		if !strings.Contains(ws, want) {
			t.Errorf("where string %q missing %q", ws, want)
		}
	}
}

func TestHasAggregateAndWalkColumns(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*) FROM t HAVING COUNT(*) >= 2")
	if !HasAggregate(sel.Having) {
		t.Error("HasAggregate(having) = false")
	}
	sel2 := parseSelect(t, "SELECT a FROM t WHERE a.x = b.y AND c > 1")
	var cols []string
	WalkColumns(sel2.Where, func(c *ColumnRef) { cols = append(cols, c.String()) })
	if len(cols) != 3 {
		t.Errorf("walked columns = %v", cols)
	}
}

func TestParseExplain(t *testing.T) {
	st, err := Parse("EXPLAIN SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*Explain)
	if !ok {
		t.Fatalf("Parse = %T, want *Explain", st)
	}
	if ex.Select == nil || len(ex.Select.Items) != 1 {
		t.Errorf("Explain.Select = %+v", ex.Select)
	}
	if _, err := Parse("EXPLAIN INSERT INTO t VALUES (1)"); err == nil {
		t.Error("EXPLAIN of non-SELECT accepted")
	}
}

// TestExprStringRoundTrip is a property test: rendering an expression with
// String() and re-parsing it yields a structurally identical tree (parens
// in String() make the rendering unambiguous).
func TestExprStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var gen func(depth int) Expr
	ops := []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr, OpAdd, OpSub, OpMul, OpDiv}
	gen = func(depth int) Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				return &IntLit{Value: rng.Int63n(1000)}
			case 1:
				return &ColumnRef{Name: string(rune('a' + rng.Intn(26)))}
			case 2:
				return &ColumnRef{Qualifier: "t", Name: string(rune('a' + rng.Intn(26)))}
			default:
				return &Param{Name: "p" + string(rune('0'+rng.Intn(10)))}
			}
		}
		// NOT is deliberately absent: the grammar only allows it at the
		// boolean level (NOT inside a comparison operand such as
		// "a < NOT b" is not parseable SQL), so String() of such a tree
		// would not round-trip. NOT round-trips are covered by
		// TestNotAndNe.
		return &BinaryExpr{
			Op: ops[rng.Intn(len(ops))],
			L:  gen(depth - 1),
			R:  gen(depth - 1),
		}
	}
	for trial := 0; trial < 200; trial++ {
		e := gen(4)
		src := "SELECT " + e.String() + " FROM t"
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", src, err)
		}
		got := st.(*Select).Items[0].Expr
		if got.String() != e.String() {
			t.Fatalf("round trip changed expression:\n  in:  %s\n  out: %s", e.String(), got.String())
		}
	}
}
