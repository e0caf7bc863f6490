package plan

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"setm/internal/catalog"
	"setm/internal/exec"
	hp "setm/internal/heap"
	"setm/internal/sqlparse"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// evalRow is the per-row reference the vectorized evaluator is checked
// against: SQL's integer semantics written out plainly, with AND and OR
// short-circuiting left to right.
func evalRow(e sqlparse.Expr, row map[string]int64, params Params) (int64, error) {
	switch v := e.(type) {
	case *sqlparse.ColumnRef:
		return row[v.Name], nil
	case *sqlparse.IntLit:
		return v.Value, nil
	case *sqlparse.Param:
		return params[v.Name], nil
	case *sqlparse.NotExpr:
		x, err := evalRow(v.E, row, params)
		return b2i(x == 0), err
	}
	be := e.(*sqlparse.BinaryExpr)
	l, err := evalRow(be.L, row, params)
	if err != nil || (be.Op == sqlparse.OpAnd && l == 0) || (be.Op == sqlparse.OpOr && l != 0) {
		return b2i(l != 0), err
	}
	r, err := evalRow(be.R, row, params)
	if err != nil || (be.Op == sqlparse.OpDiv && r == 0) {
		return 0, cmp.Or(err, errors.New("division by zero"))
	}
	c := cmp.Compare(l, r)
	return map[sqlparse.BinaryOp]int64{
		sqlparse.OpAdd: l + r, sqlparse.OpSub: l - r, sqlparse.OpMul: l * r, sqlparse.OpDiv: l / cmp.Or(r, 1),
		sqlparse.OpAnd: b2i(r != 0), sqlparse.OpOr: b2i(r != 0), sqlparse.OpEq: b2i(c == 0),
		sqlparse.OpNe: b2i(c != 0), sqlparse.OpLt: b2i(c < 0), sqlparse.OpLe: b2i(c <= 0),
		sqlparse.OpGt: b2i(c > 0), sqlparse.OpGe: b2i(c >= 0),
	}[be.Op], nil
}

// parseExpr parses src as the one item of a select list.
func parseExpr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	st, err := sqlparse.Parse("SELECT " + src + " FROM t")
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return st.(*sqlparse.Select).Items[0].Expr
}

// batchOf builds a dense batch of schema s holding rows.
func batchOf(s *tuple.Schema, rows ...[]int64) *tuple.Batch {
	b := tuple.NewBatch(s)
	for _, r := range rows {
		for c, v := range r {
			b.Cols[c].I = append(b.Cols[c].I, v)
		}
		b.BumpRow()
	}
	return b
}

// appendRows appends rows to f as one batch.
func appendRows(t *testing.T, f *hp.File, rows ...[]int64) {
	t.Helper()
	if err := f.AppendBatch(batchOf(f.Schema(), rows...)); err != nil {
		t.Fatal(err)
	}
}

func TestExprEvaluationSemantics(t *testing.T) {
	s := tuple.IntSchema("a", "b")
	cases := []struct {
		sql  string
		a, b int64
		want int64
	}{
		{"a + b * 2", 1, 3, 7},
		{"(a + b) * 2", 1, 3, 8},
		{"a - b", 5, 3, 2},
		{"a / b", 7, 2, 3},
		{"a = b", 2, 2, 1},
		{"a <> b", 2, 2, 0},
		{"a < b AND b < 10", 1, 5, 1},
		{"a > b OR b = 5", 1, 5, 1},
		{"NOT a = b", 1, 2, 1},
		{"a >= 2", 2, 0, 1},
		{"a <= 1", 2, 0, 0},
	}
	for _, c := range cases {
		x, err := compileExpr(parseExpr(t, c.sql), s, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got, err := x(batchOf(s, []int64{c.a, c.b}), nil, make([]int64, 1))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got[0] != c.want {
			t.Errorf("%s with a=%d b=%d = %d, want %d", c.sql, c.a, c.b, got[0], c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	s := tuple.IntSchema("a")
	x, err := compileExpr(parseExpr(t, "a / 0"), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x(batchOf(s, []int64{1}), nil, make([]int64, 1)); err == nil {
		t.Error("division by zero succeeded")
	}
}

// TestExprMatchesRowInterpreter runs every operator, literals and a
// parameter through the vectorized evaluator over one batch — every row
// live, a sparse selection, and a selection without the rows where c = 0 —
// and compares each live row with evalRow. An expression must fail exactly
// when evalRow fails on some live row, so a division by zero on a row the
// selection excludes is no error.
func TestExprMatchesRowInterpreter(t *testing.T) {
	s := tuple.IntSchema("a", "b", "c")
	params := Params{"p": 3}
	rng := rand.New(rand.NewSource(7))
	var rows [][]int64
	var sparse, cNonZero []int32
	for i := 0; i < 3000; i++ {
		r := []int64{rng.Int63n(7) - 3, rng.Int63n(5) + 1, rng.Int63n(7) - 3}
		rows = append(rows, r)
		if rng.Intn(3) == 0 {
			sparse = append(sparse, int32(i))
		}
		if r[2] != 0 {
			cNonZero = append(cNonZero, int32(i))
		}
	}
	b := batchOf(s, rows...)
	all := make([]int32, len(rows))
	for i := range all {
		all[i] = int32(i)
	}
	for _, src := range []string{
		"a", "7", ":p", "-a",
		"a + b", "a - c", "a * b", "a / b", "a / c",
		"a = c", "a <> c", "a < c", "a <= c", "a > c", "a >= c",
		"a < c AND b > 2", "a < c OR b > 2", "NOT a < c", "NOT (a = 0 OR b = 1)",
		"a * :p + 7 - b", ":p >= b", "1 = 1", "2 < 1 OR 0",
		"c = 0 OR 10 / c > 1", "NOT (c <> 0 AND 10 / c <= 1)", "c <> 0 AND b / c < 0",
		"c = 0 AND 10 / c > 1", "c <> 0 OR 10 / c > 1",
		"(a + b) * (c - :p) / b >= a OR NOT b = 3 AND a <> 0",
	} {
		e := parseExpr(t, src)
		x, err := compileExpr(e, s, params)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, sc := range []struct {
			name      string
			sel, live []int32
		}{{"dense", nil, all}, {"sparse", sparse, sparse}, {"c<>0", cNonZero, cNonZero}} {
			want := make(map[int32]int64, len(sc.live))
			var wantErr error
			for _, phys := range sc.live {
				r := rows[phys]
				v, err := evalRow(e, map[string]int64{"a": r[0], "b": r[1], "c": r[2]}, params)
				if err != nil {
					wantErr = err
					break
				}
				want[phys] = v
			}
			got, err := x(b, sc.sel, make([]int64, len(rows)))
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s (%s): error %v, row interpreter %v", src, sc.name, err, wantErr)
			}
			if err != nil {
				continue
			}
			for phys, w := range want {
				if got[phys] != w {
					t.Fatalf("%s (%s): row %v = %d, want %d", src, sc.name, rows[phys], got[phys], w)
				}
			}
		}
	}
}

// TestShortCircuitAndConjunctNarrowing pins, through the planner, where a
// division by zero may and may not surface: OR and AND skip the rows their
// left side decides, and a Filter shows each conjunct only the rows the
// ones before it kept. The rows, the computed select list included, are
// the row interpreter's.
func TestShortCircuitAndConjunctNarrowing(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 16)
	cat := catalog.New(pool)
	tbl, err := cat.Create("t", tuple.IntSchema("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]int64{
		{-2, 1}, {0, 2}, {3, 3}, {5, 4},
		{0, 5}, {1, 6}, {12, 7},
	}
	appendRows(t, tbl.File, rows...)
	for _, tc := range []struct {
		query   string
		wantErr bool
	}{
		{"SELECT a, b FROM t WHERE a = 0 OR 10 / a > 1 ORDER BY b", false},
		{"SELECT a, b FROM t WHERE NOT (a <> 0 AND 10 / a <= 1) ORDER BY b", false},
		{"SELECT a, b FROM t WHERE a <> 0 AND 10 / a > 1 ORDER BY b", false},
		{"SELECT b, a * 2 + b, a > 1 FROM t ORDER BY b", false},
		{"SELECT b, 10 / a FROM t WHERE a <> 0 ORDER BY b", false},
		{"SELECT a, b FROM t WHERE 10 / a > 1 ORDER BY b", true},
		{"SELECT a, b FROM t WHERE 10 / a > 1 AND a <> 0 ORDER BY b", true},
		{"SELECT b, 10 / a FROM t ORDER BY b", true},
	} {
		st, err := sqlparse.Parse(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqlparse.Select)
		pl, err := NewCompiler(cat, pool, nil).CompilePlan(sel)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		got, err := exec.Drain(pl.Root)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("%s: error %v, want division by zero", tc.query, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		var want [][]int64
		for _, r := range rows { // already in b order
			env := map[string]int64{"a": r[0], "b": r[1]}
			if sel.Where != nil {
				if keep, err := evalRow(sel.Where, env, nil); err != nil || keep == 0 {
					continue
				}
			}
			var out []int64
			for _, it := range sel.Items {
				v, err := evalRow(it.Expr, env, nil)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
			want = append(want, out)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", tc.query, got, want)
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", tc.query, i, got[i], want[i])
			}
		}
	}
}
