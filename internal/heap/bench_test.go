package heap

import (
	"io"
	"math/rand"
	"testing"

	"setm/internal/storage"
	"setm/internal/tuple"
)

// benchSchemas are the shapes the page-format benchmarks sweep: the widths
// of SALES/C_1, R_2/C_2 and R_4.
var benchSchemas = []struct {
	name   string
	schema *tuple.Schema
}{
	{"int2", tuple.IntSchema("a", "b")},
	{"int3", tuple.IntSchema("a", "b", "c")},
	{"int5", tuple.IntSchema("a", "b", "c", "d", "e")},
}

const benchRows = 100_000

// benchBatch returns benchRows random rows of s and their payload bytes.
func benchBatch(s *tuple.Schema) (*tuple.Batch, int64) {
	rng := rand.New(rand.NewSource(1))
	b := tuple.NewBatch(s)
	for i := 0; i < benchRows; i++ {
		for c := range b.Cols {
			b.Cols[c].I = append(b.Cols[c].I, rng.Int63())
		}
		b.BumpRow()
	}
	return b, int64(8 * benchRows * s.Len())
}

// BenchmarkHeapAppendBatch reports the bulk append rate of each page format
// in payload MB/s.
func BenchmarkHeapAppendBatch(b *testing.B) {
	for _, bs := range benchSchemas {
		batch, bytes := benchBatch(bs.schema)
		b.Run(bs.name, func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				f, err := Create(newPool(256), bs.schema)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeapScanBatch reports the NextBatch decode rate of each page
// format in payload MB/s, over a file resident in the pool.
func BenchmarkHeapScanBatch(b *testing.B) {
	for _, bs := range benchSchemas {
		batch, bytes := benchBatch(bs.schema)
		b.Run(bs.name, func(b *testing.B) {
			f, err := Create(storage.NewPool(storage.NewMemStore(), 4096), bs.schema)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			out := tuple.NewBatch(bs.schema)
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := f.Scan()
				rows := 0
				for {
					out.Reset()
					k, err := sc.NextBatch(out, tuple.BatchSize)
					rows += k
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				sc.Close()
				if rows != benchRows {
					b.Fatalf("scanned %d of %d rows", rows, benchRows)
				}
			}
		})
	}
}
