package storage

import (
	"errors"
	"io"
	"testing"
)

func TestRunRoundTrip(t *testing.T) {
	pool := NewPool(NewMemStore(), 4)
	for _, n := range []int{0, 1, 255, 256, 257, 1000, WordsPerPage, WordsPerPage + 1, 3 * WordsPerPage} {
		w := NewRunWriter(pool)
		for i := 0; i < n; i++ {
			if err := w.Word(uint64(i) * 7); err != nil {
				t.Fatalf("n=%d: write: %v", n, err)
			}
		}
		run, err := w.Close()
		if err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
		if run.Words() != int64(n) {
			t.Fatalf("n=%d: Words() = %d", n, run.Words())
		}
		wantPages := (n + WordsPerPage - 1) / WordsPerPage
		if run.Pages() != wantPages {
			t.Fatalf("n=%d: Pages() = %d, want %d", n, run.Pages(), wantPages)
		}
		rd := NewRunReader(pool, run)
		for i := 0; i < n; i++ {
			v, err := rd.Word()
			if err != nil {
				t.Fatalf("n=%d: read %d: %v", n, i, err)
			}
			if v != uint64(i)*7 {
				t.Fatalf("n=%d: word %d = %d, want %d", n, i, v, uint64(i)*7)
			}
		}
		if _, err := rd.Word(); err != io.EOF {
			t.Fatalf("n=%d: expected io.EOF, got %v", n, err)
		}
		rd.Close()
		if p := pool.PinnedFrames(); p != 0 {
			t.Fatalf("n=%d: %d pinned frames after round trip", n, p)
		}
		run.Free(pool)
	}
}

func TestRunRowRoundTrip(t *testing.T) {
	pool := NewPool(NewMemStore(), 4)
	rows := make([]PackedRow, 700)
	for i := range rows {
		rows[i] = PackedRow{Tid: uint64(i / 3), Key: uint64(i * 13)}
	}
	w := NewRunWriter(pool)
	if err := w.Rows(rows); err != nil {
		t.Fatal(err)
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if run.Rows() != int64(len(rows)) {
		t.Fatalf("Rows() = %d, want %d", run.Rows(), len(rows))
	}
	rd := NewRunReader(pool, run)
	defer rd.Close()
	for i, want := range rows {
		got, err := rd.Row()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("row %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := rd.Row(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestRunOddWordCountIsCorrupt(t *testing.T) {
	pool := NewPool(NewMemStore(), 2)
	w := NewRunWriter(pool)
	for i := 0; i < 3; i++ {
		if err := w.Word(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRunReader(pool, run)
	defer rd.Close()
	if _, err := rd.Row(); err != nil {
		t.Fatalf("first full row should read: %v", err)
	}
	if _, err := rd.Row(); err == nil || err == io.EOF {
		t.Fatalf("odd tail should be an explicit error, got %v", err)
	}
}

func TestRunWriterFaultFreesPartialRun(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.FailAllocAfter = 2
	pool := NewPool(fs, 4)
	w := NewRunWriter(pool)
	// The writer hands pages to the store an extent at a time, so the
	// refused third allocation may surface at an extent boundary or only
	// at Close, not at the append that filled the page.
	for i := 0; i < 4*WordsPerPage; i++ {
		if err := w.Word(uint64(i)); err != nil {
			break
		}
	}
	if _, err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close error %v does not wrap the injected fault", err)
	}
	if p := pool.PinnedFrames(); p != 0 {
		t.Fatalf("%d pinned frames after failed write", p)
	}
	// The two successfully allocated pages must be back on the free list:
	// the next writer reuses them without growing the store.
	before := fs.NumPages()
	if before != 2 {
		t.Fatalf("store holds %d pages, want the 2 allocated before the fault", before)
	}
	fs.FailAllocAfter = -1
	w2 := NewRunWriter(pool)
	for i := 0; i < 2*WordsPerPage; i++ {
		if err := w2.Word(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.NumPages() != before {
		t.Errorf("store grew from %d to %d pages: partial run not recycled", before, fs.NumPages())
	}
}

func TestRunReaderFaultIsStickyAndUnpinned(t *testing.T) {
	store := NewMemStore()
	pool := NewPool(store, 2)
	w := NewRunWriter(pool)
	for i := 0; i < 3*WordsPerPage; i++ {
		if err := w.Word(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Reset(); err != nil { // force physical reads below
		t.Fatal(err)
	}
	fs := NewFaultStore(store)
	fs.FailReadAfter = 1
	pool2 := NewPool(fs, 2)
	rd := NewRunReader(pool2, run)
	defer rd.Close()
	sawErr := false
	for i := 0; i < 3*WordsPerPage; i++ {
		if _, err := rd.Word(); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("error %v does not wrap the injected fault", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("reader never surfaced the injected read fault")
	}
	if _, err := rd.Word(); !errors.Is(err, ErrInjected) {
		t.Fatal("reader error not sticky")
	}
	if p := pool2.PinnedFrames(); p != 0 {
		t.Fatalf("%d pinned frames after read fault", p)
	}
}
