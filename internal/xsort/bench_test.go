package xsort

import (
	"math/rand"
	"testing"

	hp "setm/internal/heap"
	"setm/internal/storage"
	"setm/internal/tuple"
)

func benchFile(b *testing.B, pool *storage.Pool, n int) *hp.File {
	b.Helper()
	f, err := hp.Create(pool, tuple.IntSchema("tid", "item"))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := f.Append(tuple.Ints(rng.Int63n(10000), rng.Int63n(1000))); err != nil {
			b.Fatal(err)
		}
	}
	return f
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
				if _, err := sortFile(pool, f, byColumns(0, 1), 64<<10); err != nil {
					b.Fatal(err)
				}
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
		if _, err := sortFile(pool, f, byColumns(0, 1), 0); err != nil {
			b.Fatal(err)
		}
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
