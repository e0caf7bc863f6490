package heap

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"setm/internal/storage"
	"setm/internal/tuple"
)

// benchSchemas are the shapes the page-format benchmarks sweep: the all-INT
// widths of SALES/C_1, R_2/C_2 and R_4, and one schema with a string
// column, which takes the record layout.
var benchSchemas = []struct {
	name   string
	schema *tuple.Schema
}{
	{"int2", tuple.IntSchema("a", "b")},
	{"int3", tuple.IntSchema("a", "b", "c")},
	{"int5", tuple.IntSchema("a", "b", "c", "d", "e")},
	{"mixed", tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
		tuple.Column{Name: "n", Kind: tuple.KindInt})},
}

const benchRows = 100_000

// benchBatch returns benchRows random rows of s and their payload bytes.
func benchBatch(s *tuple.Schema) (*tuple.Batch, int64) {
	rng := rand.New(rand.NewSource(1))
	b := tuple.NewBatch(s)
	var bytes int64
	for i := 0; i < benchRows; i++ {
		t := make(tuple.Tuple, s.Len())
		for c, col := range s.Cols {
			if col.Kind == tuple.KindInt {
				t[c] = tuple.I(rng.Int63())
				bytes += 8
			} else {
				t[c] = tuple.S(fmt.Sprintf("item-%d", rng.Intn(1000)))
				bytes += int64(len(t[c].Str))
			}
		}
		if err := b.AppendTuple(t); err != nil {
			panic(err)
		}
	}
	return b, bytes
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
