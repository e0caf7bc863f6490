package xsort

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"setm/internal/storage"
)

func randomRows(rng *rand.Rand, n, tidRange, keyRange int) []storage.PackedRow {
	rows := make([]storage.PackedRow, n)
	for i := range rows {
		rows[i] = storage.PackedRow{
			Tid: uint64(rng.Intn(tidRange)),
			Key: uint64(rng.Intn(keyRange)),
		}
	}
	return rows
}

func sortRowsRef(rows []storage.PackedRow) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
}

func TestRadixSortRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 3, 17, 255, 256, 1000} {
		rows := randomRows(rng, n, 50, 1<<20)
		want := append([]storage.PackedRow(nil), rows...)
		sortRowsRef(want)
		RadixSortRows(rows, make([]storage.PackedRow, n))
		for i := range rows {
			if rows[i] != want[i] {
				t.Fatalf("n=%d: rows[%d] = %+v, want %+v", n, i, rows[i], want[i])
			}
		}
	}
}

// TestMergeSortedRunsEqualsGlobalSort spills sorted chunks and verifies
// the cascaded merge reproduces the globally sorted sequence, across
// fan-ins that force multi-level cascades.
func TestMergeSortedRunsEqualsGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		n, chunk, fanIn int
	}{
		{0, 10, 2},
		{5, 100, 2},
		{1000, 64, 2},
		{1000, 64, 3},
		{5000, 100, 4},
		{5000, 1000, 16},
		{3000, 7, 2}, // 429 runs through fan-in 2: deep cascade
	} {
		pool := storage.NewPool(storage.NewMemStore(), 8)
		rows := randomRows(rng, tc.n, 200, 1<<16)
		want := append([]storage.PackedRow(nil), rows...)
		sortRowsRef(want)

		var runs []storage.Run
		for i := 0; i < len(rows); i += tc.chunk {
			end := i + tc.chunk
			if end > len(rows) {
				end = len(rows)
			}
			chunk := append([]storage.PackedRow(nil), rows[i:end]...)
			RadixSortRows(chunk, make([]storage.PackedRow, len(chunk)))
			run, err := SpillRows(pool, chunk)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}

		var got []storage.PackedRow
		err := MergeRows(pool, runs, tc.fanIn, func(r storage.PackedRow) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: merged %d rows, want %d", tc, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: row %d = %+v, want %+v", tc, i, got[i], want[i])
			}
		}
		if p := pool.PinnedFrames(); p != 0 {
			t.Fatalf("%+v: %d pinned frames after merge", tc, p)
		}
		// MergeRows consumes its input runs: everything it wrote and read
		// must be back on the free list, so a fresh spill reuses pages
		// without growing the store.
		if tc.n == 0 {
			continue // nothing was ever spilled; nothing to recycle
		}
		before := pool.Store().NumPages()
		if run, err := SpillKeys(pool, make([]uint64, storage.WordsPerPage)); err != nil {
			t.Fatal(err)
		} else if pool.Store().NumPages() != before {
			t.Errorf("%+v: store grew after merge: consumed runs not freed", tc)
		} else {
			run.Free(pool)
		}
	}
}

// TestMergeRowsNConcurrentCascade drives the deep-cascade shape — ~445
// runs at fan-in 3, several reduction rounds — through MergeRows: the
// emitted sequence must be the global sort, all input runs consumed, and
// no pins left behind. (The name dates from the cascade's concurrent
// rounds; the shape is what it keeps.)
func TestMergeRowsNConcurrentCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 4000, 300, 1<<16)
	want := append([]storage.PackedRow(nil), rows...)
	sortRowsRef(want)
	pool := storage.NewPool(storage.NewMemStore(), 16)
	var runs []storage.Run
	const chunk = 9
	for i := 0; i < len(rows); i += chunk {
		end := min(i+chunk, len(rows))
		c := append([]storage.PackedRow(nil), rows[i:end]...)
		RadixSortRows(c, make([]storage.PackedRow, len(c)))
		run, err := SpillRows(pool, c)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	var got []storage.PackedRow
	err := MergeRows(pool, runs, 3, func(r storage.PackedRow) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("row cascade diverges from the global sort (%d vs %d rows)", len(got), len(want))
	}
	if p := pool.PinnedFrames(); p != 0 {
		t.Fatalf("%d pinned frames after merge", p)
	}
}

// TestMergeKeysNConcurrentCascade is the key-column twin, at fan-in 4.
func TestMergeKeysNConcurrentCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var all []uint64
	pool := storage.NewPool(storage.NewMemStore(), 16)
	var runs []storage.Run
	for i := 0; i < 150; i++ {
		n := rng.Intn(40) + 1
		keys := make([]uint64, n)
		for j := range keys {
			keys[j] = uint64(rng.Intn(1 << 12))
		}
		slices.Sort(keys)
		all = append(all, keys...)
		run, err := SpillKeys(pool, keys)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	slices.Sort(all)
	var got []uint64
	if err := MergeKeys(pool, runs, 4, func(k uint64) error {
		got = append(got, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, all) {
		t.Fatalf("key cascade diverges from the global sort (%d vs %d keys)", len(got), len(all))
	}
}

func TestMergeKeysCountsRuns(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), 8)
	// Two sorted key runs with overlapping values.
	a := []uint64{1, 1, 2, 5, 9}
	b := []uint64{1, 2, 2, 9, 9, 9}
	ra, err := SpillKeys(pool, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SpillKeys(pool, b)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	var prev uint64
	first := true
	err = MergeKeys(pool, []storage.Run{ra, rb}, 2, func(k uint64) error {
		if !first && k < prev {
			t.Fatalf("merge emitted %d after %d", k, prev)
		}
		prev, first = k, false
		counts[k]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{1: 3, 2: 3, 5: 1, 9: 4}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("key %d: count %d, want %d", k, counts[k], n)
		}
	}
}

// FuzzPackedSpill round-trips packed pages through the run-store codec:
// arbitrary rows, chunked and radix-sorted into spilled runs, must merge
// back to exactly the multiset of the input in global sorted order —
// across chunk sizes and fan-ins that exercise the cascade, over an
// in-memory store or (fanIn8's top bit) a page file.
func FuzzPackedSpill(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(2))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66}, uint8(1), uint8(5))
	f.Add(make([]byte, 4096), uint8(16), uint8(3))
	// 4096 rows through one-page extents and fan-in 2: merged runs span
	// many extents. Once in memory, once over a page file.
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 3352), uint8(127), uint8(0))
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 3352), uint8(127), uint8(0x80))
	f.Add(make([]byte, 4096), uint8(16), uint8(0x83))
	f.Fuzz(func(t *testing.T, data []byte, chunk8, fanIn8 uint8) {
		chunk := int(chunk8)%64 + 1
		fanIn := int(fanIn8)%6 + 2
		// Decode rows from the fuzz bytes (9 bytes -> one row; keys kept
		// narrow so duplicates are common).
		var rows []storage.PackedRow
		for i := 0; i+9 <= len(data) && len(rows) < 4096; i += 9 {
			tid := uint64(data[i]) | uint64(data[i+1])<<8
			key := uint64(data[i+2]) | uint64(data[i+3])<<8 | uint64(data[i+4])<<16
			_ = data[i+8]
			rows = append(rows, storage.PackedRow{Tid: tid, Key: key})
		}
		want := append([]storage.PackedRow(nil), rows...)
		sortRowsRef(want)

		var store storage.Store = storage.NewMemStore()
		if fanIn8&0x80 != 0 {
			fs, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "runs.pages"))
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			store = fs
		}
		pool := storage.NewPool(store, 6)
		// 0 keeps the full extent; 1-3 pages make short runs span several.
		pool.LimitRunExtent(int64(chunk8/64) * storage.PageSize)
		spillMergeRoundTrip(t, pool, rows, want, chunk, fanIn)
	})
}

// spillMergeRoundTrip spills rows in sorted chunks of chunk rows and
// checks that the fan-in merge returns want.
func spillMergeRoundTrip(t *testing.T, pool *storage.Pool, rows, want []storage.PackedRow, chunk, fanIn int) {
	var runs []storage.Run
	for i := 0; i < len(rows); i += chunk {
		end := i + chunk
		if end > len(rows) {
			end = len(rows)
		}
		c := append([]storage.PackedRow(nil), rows[i:end]...)
		RadixSortRows(c, make([]storage.PackedRow, len(c)))
		run, err := SpillRows(pool, c)
		if err != nil {
			t.Fatal(err)
		}
		if run.Rows() != int64(len(c)) {
			t.Fatalf("run holds %d rows, spilled %d", run.Rows(), len(c))
		}
		runs = append(runs, run)
	}
	var got []storage.PackedRow
	if err := MergeRows(pool, runs, fanIn, func(r storage.PackedRow) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if p := pool.PinnedFrames(); p != 0 {
		t.Fatalf("%d pinned frames after round trip", p)
	}
}
