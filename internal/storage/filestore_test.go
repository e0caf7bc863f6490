package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	buf[0], buf[PageSize-1] = 0xAA, 0x55
	if err := s.WritePages(id, buf[:]); err != nil {
		t.Fatal(err)
	}
	var out [PageSize]byte
	if err := s.ReadPages(id, out[:]); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA || out[PageSize-1] != 0x55 {
		t.Error("page data corrupted")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		var buf [PageSize]byte
		buf[0] = byte(i + 1)
		if err := s.WritePages(id, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumPages() != 3 {
		t.Fatalf("NumPages after reopen = %d", s2.NumPages())
	}
	var out [PageSize]byte
	if err := s2.ReadPages(1, out[:]); err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("page 1 marker = %d, want 2", out[0])
	}
}

func TestFileStoreRejectsTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.db")
	if err := os.WriteFile(path, make([]byte, PageSize+17), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Error("torn file accepted")
	}
}

func TestFileStoreBoundsChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf [PageSize]byte
	if err := s.ReadPages(0, buf[:]); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := s.WritePages(9, buf[:]); err == nil {
		t.Error("write of unallocated page succeeded")
	}
}

func TestFileStoreWorksUnderPool(t *testing.T) {
	// The full pool + heap pattern against a real file.
	path := filepath.Join(t.TempDir(), "pool.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(s, 2)
	var ids []PageID
	for i := 0; i < 10; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[3] = byte(i)
		pg.MarkDirty()
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data[3] != byte(i) {
			t.Errorf("page %d marker = %d", id, pg.Data[3])
		}
		p.Unpin(pg)
	}
}

func TestFaultStoreInjection(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if _, err := fs.Allocate(); err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	if err := fs.WritePages(0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadPages(0, buf[:]); err != nil {
		t.Fatal(err)
	}

	fs.FailReadAfter = 1 // one read already happened
	if err := fs.ReadPages(0, buf[:]); !errors.Is(err, ErrInjected) {
		t.Errorf("read fault = %v", err)
	}
	fs.FailWriteAfter = 1
	if err := fs.WritePages(0, buf[:]); !errors.Is(err, ErrInjected) {
		t.Errorf("write fault = %v", err)
	}
	fs.FailAllocAfter = 1
	if _, err := fs.Allocate(); !errors.Is(err, ErrInjected) {
		t.Errorf("alloc fault = %v", err)
	}
	if fs.NumPages() != 1 {
		t.Errorf("NumPages = %d", fs.NumPages())
	}
}

func TestPoolPropagatesReadFaults(t *testing.T) {
	inner := NewMemStore()
	warm := NewPool(inner, 4)
	pg, err := warm.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	warm.Unpin(pg)
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}

	fs := NewFaultStore(inner)
	fs.FailReadAfter = 0
	p := NewPool(fs, 4)
	if _, err := p.Fetch(0); !errors.Is(err, ErrInjected) {
		t.Errorf("pool fetch fault = %v", err)
	}
}

func TestPoolPropagatesEvictionWriteFaults(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.FailWriteAfter = 0
	p := NewPool(fs, 1)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg.MarkDirty()
	p.Unpin(pg)
	// Allocating a second page must evict (and fail to write) the first.
	if _, err := p.Allocate(); !errors.Is(err, ErrInjected) {
		t.Errorf("eviction write fault = %v", err)
	}
}

// TestWriteFileAtomicFailedWriteKeepsTarget: a writer that dies halfway
// leaves the old target byte-identical and no *.tmp behind; a good write
// then replaces it.
func TestWriteFileAtomicFailedWriteKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target.bin")
	old := []byte("the committed content\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("killed mid-write")
	err := WriteFileAtomic(path, false, func(w io.Writer) error {
		if _, werr := w.Write(bytes.Repeat([]byte("x"), 3*PageSize)); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic error = %v, want the writer's", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("target after a failed write: %q (err %v), want %q", got, err, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want the target alone", len(entries))
	}

	for _, nosync := range []bool{false, true} {
		want := []byte(fmt.Sprintf("replaced, nosync=%v", nosync))
		if err := WriteFileAtomic(path, nosync, func(w io.Writer) error {
			_, werr := w.Write(want)
			return werr
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("nosync=%v: target = %q (err %v), want %q", nosync, got, err, want)
		}
	}
}
