package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"setm/internal/tuple"
)

// loadPairs creates table name with n (trans_id, item) rows, trans_id
// ascending — the physical shape MineSQL loads.
func loadPairs(t testing.TB, db *DB, name string, n int, seed int64) [][]int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, 0, n)
	tid := int64(0)
	for len(rows) < n {
		tid += 1 + rng.Int63n(3)
		run := 1 + rng.Intn(5)
		for j := 0; j < run && len(rows) < n; j++ {
			rows = append(rows, []int64{tid, rng.Int63n(40)})
		}
	}
	loadRows(t, db, name, tuple.IntSchema("trans_id", "item"), rows)
	return rows
}

func flattenBatches(s *tuple.Schema, batches []*tuple.Batch) [][]int64 {
	var rows [][]int64
	for _, b := range batches {
		for i := range b.Len() {
			row := make([]int64, len(b.Cols))
			for c := range row {
				row[c] = b.Cols[c].I[b.RowIdx(i)]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestQueryBatchesConcurrent runs a prepared statement from two goroutines
// under -race. Each execution compiles its own plan, so concurrent runs
// never share operator state. Results must match the serial answer
// exactly.
func TestQueryBatchesConcurrent(t *testing.T) {
	db := New()
	loadPairs(t, db, "sales", 8000, 42)
	queries := []string{
		`SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item HAVING COUNT(*) >= :minsupport ORDER BY s.item`,
		`SELECT s.trans_id, s.item FROM sales s WHERE s.item < :minsupport ORDER BY s.trans_id, s.item`,
	}
	for _, q := range queries {
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]int64{"minsupport": 5}
		wantSchema, wantBatches, err := st.QueryBatches(params)
		if err != nil {
			t.Fatal(err)
		}
		want := flattenBatches(wantSchema, wantBatches)

		const goroutines, iters = 2, 4
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					schema, batches, err := st.QueryBatches(params)
					if err != nil {
						errc <- err
						return
					}
					got := flattenBatches(schema, batches)
					if len(got) != len(want) {
						errc <- fmt.Errorf("%d rows, want %d", len(got), len(want))
						return
					}
					for j := range got {
						if fmt.Sprint(got[j]) != fmt.Sprint(want[j]) {
							errc <- fmt.Errorf("row %d = %v, want %v", j, got[j], want[j])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Errorf("%s: %v", q, err)
		}
	}
}
