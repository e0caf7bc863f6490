package engine

import (
	"math/rand"
	"testing"

	"setm/internal/tuple"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New()
	rng := rand.New(rand.NewSource(1))
	data := make([][]int64, rows)
	for i := range data {
		data[i] = []int64{rng.Int63n(int64(rows/5 + 1)), rng.Int63n(100)}
	}
	loadRows(b, db, "sales", tuple.IntSchema("trans_id", "item"), data)
	return db
}

// BenchmarkParse measures statement parsing alone.
func BenchmarkParse(b *testing.B) {
	db := New()
	db.MustExec("CREATE TABLE sales (trans_id INT, item INT)", nil)
	const q = `SELECT r1.item, r2.item, COUNT(*)
	           FROM sales r1, sales r2
	           WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
	           GROUP BY r1.item, r2.item
	           HAVING COUNT(*) >= :minsupport
	           ORDER BY r1.item, r2.item`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("EXPLAIN "+q, map[string]int64{"minsupport": 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCountQuery is the paper's C_1 query end to end.
func BenchmarkGroupCountQuery(b *testing.B) {
	db := benchDB(b, 20000)
	const q = `SELECT s.item, COUNT(*) FROM sales s
	           GROUP BY s.item HAVING COUNT(*) >= :minsupport`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q, map[string]int64{"minsupport": 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfJoinQuery is the paper's pair-generation query end to end.
func BenchmarkSelfJoinQuery(b *testing.B) {
	db := benchDB(b, 5000)
	const q = `SELECT r1.item, r2.item, COUNT(*)
	           FROM sales r1, sales r2
	           WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
	           GROUP BY r1.item, r2.item
	           HAVING COUNT(*) >= :minsupport`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q, map[string]int64{"minsupport": 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare measures statement preparation alone: parse through
// the process-wide AST cache plus Stmt construction.
func BenchmarkPrepare(b *testing.B) {
	db := New()
	db.MustExec("CREATE TABLE sales (trans_id INT, item INT)", nil)
	const q = `SELECT r1.item, r2.item, COUNT(*)
	           FROM sales r1, sales r2
	           WHERE r1.trans_id = r2.trans_id AND r2.item > r1.item
	           GROUP BY r1.item, r2.item
	           HAVING COUNT(*) >= :minsupport
	           ORDER BY r1.item, r2.item`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertSelect measures the INSERT ... SELECT ... ORDER BY path
// SETM uses to materialize each R_k.
func BenchmarkInsertSelect(b *testing.B) {
	db := benchDB(b, 10000)
	db.MustExec("CREATE TABLE IF NOT EXISTS dst (trans_id INT, item INT)", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustExec("DELETE FROM dst", nil)
		if _, err := db.Exec(`INSERT INTO dst
			SELECT s.trans_id, s.item FROM sales s
			ORDER BY s.trans_id, s.item`, nil); err != nil {
			b.Fatal(err)
		}
	}
}
