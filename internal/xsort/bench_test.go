package xsort_test

import (
	"math/rand"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
)

func benchFile(b *testing.B, pool *storage.Pool, n int) *hp.File {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(10000), rng.Int63n(1000)}
	}
	return makeFile(b, pool, rows, "tid", "item")
}

// BenchmarkExternalSort measures the sort primitive at SETM's typical
// relation sizes, with a memory limit forcing multi-run merges.
func BenchmarkExternalSort(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmtInt(n), func(b *testing.B) {
			pool := storage.NewPool(storage.NewMemStore(), 4096)
			f := benchFile(b, pool, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sortFile(b, pool, f, 64<<10, []int{0, 1})
			}
		})
	}
}

// BenchmarkInMemorySort is the single-run fast path.
func BenchmarkInMemorySort(b *testing.B) {
	pool := storage.NewPool(storage.NewMemStore(), 4096)
	f := benchFile(b, pool, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortFile(b, pool, f, 0, []int{0, 1})
	}
}

func fmtInt(n int) string {
	switch {
	case n >= 1000000:
		return "1M"
	case n >= 100000:
		return "100k"
	case n >= 10000:
		return "10k"
	default:
		return "1k"
	}
}
