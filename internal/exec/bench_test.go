package exec

import (
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"setm/internal/tuple"
)

func sortedPairs(n, keys int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(int64(keys)), int64(i)}
	}
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
	return rows
}

func drainOp(b *testing.B, op Operator) int {
	b.Helper()
	if err := op.Open(); err != nil {
		b.Fatal(err)
	}
	defer op.Close()
	n := 0
	for {
		batch, err := op.NextBatch()
		if err == io.EOF {
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
		n += batch.Len()
	}
}

// BenchmarkMergeJoin measures SETM's central primitive on pre-sorted
// inputs of increasing size.
func BenchmarkMergeJoin(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		left := sortedPairs(n, n/5, 1)
		right := sortedPairs(n, n/5, 2)
		schema := tuple.IntSchema("k", "v")
		b.Run(fmtInt(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := NewMergeJoin(NewMemScan(schema, left), NewMemScan(schema, right),
					[]int{0}, []int{0})
				drainOp(b, j)
			}
		})
	}
}

// BenchmarkSortGroupCount measures the counting scan.
func BenchmarkSortGroupCount(b *testing.B) {
	rows := sortedPairs(100000, 500, 3)
	schema := tuple.IntSchema("k", "v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewSortGroup(NewMemScan(schema, rows), []int{0},
			[]AggSpec{{Kind: AggCount, Name: "cnt"}})
		drainOp(b, g)
	}
}

func fmtInt(n int) string {
	switch {
	case n >= 100000:
		return "100k"
	case n >= 10000:
		return "10k"
	case n >= 1000:
		return "1k"
	default:
		return "100"
	}
}
