package storage

import (
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
)

// testStores are the substrates the run tests cover: the extent path must
// behave the same over RAM and over a real file.
var testStores = map[string]func(t testing.TB) Store{
	"mem": func(testing.TB) Store { return NewMemStore() },
	"file": func(t testing.TB) Store {
		fs, err := OpenFileStore(filepath.Join(t.TempDir(), "runs.pages"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	},
}

// writeMixed appends words through a random mix of Word, Row, Rows and
// Keys calls, so the run's content is independent of the append API.
func writeMixed(t *testing.T, rng *rand.Rand, pool *Pool, words []uint64) Run {
	t.Helper()
	w := NewRunWriter(pool)
	for rest := words; len(rest) > 0; {
		var err error
		n := 1
		switch op := rng.Intn(4); {
		case op == 0 || len(rest) == 1:
			err = w.Word(rest[0])
		case op == 1:
			n = 2
			err = w.Row(PackedRow{Tid: rest[0], Key: rest[1]})
		case op == 2:
			rows := make([]PackedRow, min(1+rng.Intn(3*RunExtentPages*WordsPerPage/4), len(rest)/2))
			for i := range rows {
				rows[i] = PackedRow{Tid: rest[2*i], Key: rest[2*i+1]}
			}
			n = 2 * len(rows)
			err = w.Rows(rows)
		default:
			n = min(1+rng.Intn(3*RunExtentPages*WordsPerPage/2), len(rest))
			err = w.Keys(rest[:n])
		}
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// readAll drains rd block-wise.
func readAll(rd *RunReader) ([]uint64, error) {
	var out []uint64
	for {
		blk, err := rd.Block()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, blk...)
	}
}

func sameWords(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// checkRun reads run back through every access path and compares with
// the words written.
func checkRun(t *testing.T, pool *Pool, run Run, want []uint64) {
	t.Helper()
	if run.Words() != int64(len(want)) || run.Pages() != (len(want)+WordsPerPage-1)/WordsPerPage {
		t.Fatalf("run has %d words on %d pages, wrote %d words", run.Words(), run.Pages(), len(want))
	}
	got, err := readAll(NewRunReader(pool, run))
	if err != nil {
		t.Fatal(err)
	}
	sameWords(t, "Block", got, want)

	rd := NewRunReader(pool, run)
	for i, w := range want {
		if v, err := rd.Word(); err != nil || v != w {
			t.Fatalf("Word %d = %d, %v; want %d", i, v, err, w)
		}
	}
	if _, err := rd.Word(); err != io.EOF {
		t.Fatalf("Word past the end: %v, want io.EOF", err)
	}
	if p := pool.PinnedFrames(); p != 0 {
		t.Fatalf("%d pinned frames after reading", p)
	}
}

// TestRunRoundTripProperty: whatever mix of appends wrote it, on either
// store, over contiguous or fragmented page ids, a run reads back
// word for word through Block and Word, and its pages are reused once
// freed.
func TestRunRoundTripProperty(t *testing.T) {
	const ext = RunExtentPages * WordsPerPage
	for name, open := range testStores {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			pool := NewPool(open(t), 4)
			for _, fragmented := range []bool{false, true} {
				for _, n := range []int{0, 1, 2, WordsPerPage - 1, WordsPerPage, WordsPerPage + 1, ext - 1, ext, ext + 1, ext + 2, 3*ext + 7} {
					if fragmented {
						// Leave every other page of a dead run on the free
						// list: the ids the next run takes are not contiguous.
						dead := writeMixed(t, rng, pool, make([]uint64, 40*WordsPerPage))
						var odd []PageID
						for i := 1; i < len(dead.pages); i += 2 {
							odd = append(odd, dead.pages[i])
						}
						pool.FreePages(odd)
						defer dead.Free(pool)
					}
					want := make([]uint64, n)
					for i := range want {
						want[i] = rng.Uint64()
					}
					run := writeMixed(t, rng, pool, want)
					checkRun(t, pool, run, want)

					run.Free(pool)
					before := pool.Store().NumPages()
					again := writeMixed(t, rng, pool, want)
					if got := pool.Store().NumPages(); got != before {
						t.Fatalf("n=%d: rewriting a freed run grew the store %d -> %d pages", n, before, got)
					}
					checkRun(t, pool, again, want)
					again.Free(pool)
				}
			}
		})
	}
}

// TestRunFaultSweep refuses the N-th page allocation, write and read of a
// run four extents long, for every N. The writer stages whole extents, so
// a fault may surface at the extent boundary or at Close rather than at
// the append that filled the page; wherever it does, it must wrap
// ErrInjected, leave no pin, and return every page of the partial run
// (the next writer does not grow the store).
func TestRunFaultSweep(t *testing.T) {
	const pages = 3*RunExtentPages + 2
	words := make([]uint64, pages*WordsPerPage-5)
	for i := range words {
		words[i] = uint64(i) * 3
	}
	write := func(pool *Pool) (Run, error) {
		w := NewRunWriter(pool)
		werr := w.Keys(words)
		run, err := w.Close()
		if werr != nil && !errors.Is(err, werr) {
			t.Fatalf("Close returned %v after append error %v", err, werr)
		}
		return run, err
	}
	for n := 0; n <= pages; n++ {
		for _, kind := range []string{"alloc", "write", "read"} {
			fs := NewFaultStore(NewMemStore())
			pool := NewPool(fs, 4)
			switch kind {
			case "alloc":
				fs.FailAllocAfter = n
			case "write":
				fs.FailWriteAfter = n
			}
			run, err := write(pool)
			if kind == "read" || n == pages {
				if err != nil {
					t.Fatalf("%s@%d: write: %v", kind, n, err)
				}
			} else if !errors.Is(err, ErrInjected) {
				t.Fatalf("%s@%d: write error %v does not wrap the injected fault", kind, n, err)
			}
			if kind == "read" {
				fs.FailReadAfter = n
				rd := NewRunReader(pool, run)
				got, err := readAll(rd)
				if n >= pages {
					if err != nil {
						t.Fatalf("read@%d: %v", n, err)
					}
					sameWords(t, "read", got, words)
				} else if !errors.Is(err, ErrInjected) {
					t.Fatalf("read@%d: error %v does not wrap the injected fault", n, err)
				} else if _, err := rd.Word(); !errors.Is(err, ErrInjected) {
					t.Fatalf("read@%d: error not sticky: %v", n, err)
				}
				rd.Close()
			}
			run.Free(pool)
			if p := pool.PinnedFrames(); p != 0 {
				t.Fatalf("%s@%d: %d pinned frames", kind, n, p)
			}
			// Every page the store holds is back on the free list.
			fs.FailAllocAfter, fs.FailWriteAfter, fs.FailReadAfter = -1, -1, -1
			before := fs.NumPages()
			w := NewRunWriter(pool)
			if err := w.Keys(make([]uint64, before*WordsPerPage)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fs.NumPages(); got != before {
				t.Fatalf("%s@%d: store grew %d -> %d pages: partial run not freed", kind, n, before, got)
			}
		}
	}
}

// callCounter counts store calls, whatever their size.
type callCounter struct {
	Store
	reads, writes int
}

func (c *callCounter) ReadPages(id PageID, dst []byte) error {
	c.reads++
	return c.Store.ReadPages(id, dst)
}

func (c *callCounter) WritePages(id PageID, src []byte) error {
	c.writes++
	return c.Store.WritePages(id, src)
}

// TestRunMovesExtentsPerStoreCall: a 1,000-page run over a fresh store
// costs one store call per extent each way, while Stats still counts
// every page, all but the first read sequential.
func TestRunMovesExtentsPerStoreCall(t *testing.T) {
	const pages = 1000
	cc := &callCounter{Store: NewMemStore()}
	pool := NewPool(cc, 256)
	w := NewRunWriter(pool)
	if err := w.Keys(make([]uint64, pages*WordsPerPage)); err != nil {
		t.Fatal(err)
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(NewRunReader(pool, run)); err != nil || len(got) != pages*WordsPerPage {
		t.Fatalf("read back %d words, %v", len(got), err)
	}
	if limit := pages/RunExtentPages + 1; cc.writes > limit || cc.reads > limit {
		t.Errorf("%d write and %d read calls for %d pages, want at most %d each", cc.writes, cc.reads, pages, limit)
	}
	st := pool.Stats
	if st.Writes != pages || st.Reads != pages || st.SeqReads != pages-1 || st.SeqWrites != pages-1 || st.Allocs != pages || st.Hits != 0 {
		t.Errorf("stats %s, want %d pages each way, sequential after the first", st.String(), pages)
	}
}

// TestLimitRunExtent: a budget share under an extent shortens the run
// buffers to the pages that fit, never below one.
func TestLimitRunExtent(t *testing.T) {
	for _, tc := range []struct {
		share int64
		want  int
	}{{0, RunExtentPages}, {-1, RunExtentPages}, {1, 1}, {PageSize, 1}, {3*PageSize + 9, 3}, {1 << 30, RunExtentPages}} {
		cc := &callCounter{Store: NewMemStore()}
		pool := NewPool(cc, 4)
		pool.LimitRunExtent(tc.share)
		if got := pool.RunExtent(); got != tc.want {
			t.Fatalf("share %d: extent %d pages, want %d", tc.share, got, tc.want)
		}
		words := make([]uint64, 2*RunExtentPages*WordsPerPage)
		w := NewRunWriter(pool)
		if err := w.Keys(words); err != nil {
			t.Fatal(err)
		}
		run, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, pool, run, words)
		if want := (run.Pages() + tc.want - 1) / tc.want; cc.writes != want {
			t.Errorf("share %d: %d write calls for %d pages, want %d", tc.share, cc.writes, run.Pages(), want)
		}
	}
}

// TestPoolFailedInsertReturnsPageID: when no frame can be had for a new
// page — every frame pinned, or the eviction write fails — the page id
// goes back to the free list, so retrying does not grow the store.
func TestPoolFailedInsertReturnsPageID(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	p := NewPool(fs, 1)
	first, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the only frame is pinned
		if _, err := p.Allocate(); err == nil {
			t.Fatal("allocation succeeded with every frame pinned")
		}
	}
	p.Unpin(first)
	fs.FailWriteAfter = 0
	for i := 0; i < 3; i++ { // the eviction write fails
		if _, err := p.Allocate(); !errors.Is(err, ErrInjected) {
			t.Fatalf("eviction write fault = %v", err)
		}
	}
	if got := fs.NumPages(); got != 2 {
		t.Fatalf("store grew to %d pages over failed allocations, want 2", got)
	}
	fs.FailWriteAfter = -1
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID != 1 || fs.NumPages() != 2 {
		t.Errorf("retry allocated page %d of %d, want the returned page 1 of 2", pg.ID, fs.NumPages())
	}
	p.Unpin(pg)
}

// BenchmarkRunWriteRead writes a 4 MiB run to a file-backed 256-frame
// pool, reads it back and frees it — the spilled regime's unit of work.
func BenchmarkRunWriteRead(b *testing.B) {
	const n = 1 << 18 // rows; twice as many keys
	rows := make([]PackedRow, n)
	keys := make([]uint64, 2*n)
	for i := range rows {
		rows[i] = PackedRow{Tid: uint64(i / 4), Key: uint64(i) * 2654435761}
		keys[2*i], keys[2*i+1] = rows[i].Tid, rows[i].Key
	}
	for _, bc := range []struct {
		name  string
		write func(*RunWriter) error
	}{
		{"rows", func(w *RunWriter) error { return w.Rows(rows) }},
		{"keys", func(w *RunWriter) error { return w.Keys(keys) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := NewPool(testStores["file"](b), 256)
			b.SetBytes(2 * 16 * n) // written once, read once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := NewRunWriter(pool)
				err := bc.write(w)
				run, cerr := w.Close()
				if err != nil || cerr != nil {
					b.Fatal(err, cerr)
				}
				rd, words := NewRunReader(pool, run), 0
				for blk, err := rd.Block(); err != io.EOF; blk, err = rd.Block() {
					if err != nil {
						b.Fatal(err)
					}
					words += len(blk)
				}
				if words != 2*n {
					b.Fatalf("read %d of %d words", words, 2*n)
				}
				run.Free(pool)
			}
		})
	}
}
