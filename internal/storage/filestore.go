package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FileStore is a Store backed by a single file on disk, pages laid out
// contiguously by ID. It gives the engine durable storage; the reproduction
// defaults to MemStore (the paper's experiments are about counting I/O,
// not performing it) but FileStore lets the same code run against a real
// file, and its tests double as a check that the page layer makes no
// in-memory-only assumptions.
type FileStore struct {
	mu    sync.Mutex
	f     *os.File
	pages int
}

// OpenFileStore creates or opens a page file. An existing file must be a
// whole number of pages long.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the page size", path, st.Size())
	}
	return &FileStore{f: f, pages: int(st.Size() / PageSize)}, nil
}

// Close releases the underlying file, its length covering every
// allocated page.
func (s *FileStore) Close() error {
	err := s.extend()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// extend grows the file over allocated pages never written (they read
// as zeros either way), so the page count survives a reopen.
func (s *FileStore) extend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Truncate(int64(s.pages) * PageSize)
}

// ReadPages implements Store with one read call. Allocated pages past the
// end of the file were never written and read as zeros.
func (s *FileStore) ReadPages(id PageID, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := checkExtent("read", id, len(dst), s.pages); err != nil {
		return err
	}
	n, err := s.f.ReadAt(dst, int64(id)*PageSize)
	if err == io.EOF {
		clear(dst[n:])
		err = nil
	}
	return err
}

// WritePages implements Store with one write call.
func (s *FileStore) WritePages(id PageID, src []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := checkExtent("write", id, len(src), s.pages); err != nil {
		return err
	}
	_, err := s.f.WriteAt(src, int64(id)*PageSize)
	return err
}

// Allocate implements Store. The file grows when the page is first
// written (or, for a page never written, at Sync or Close).
func (s *FileStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages++
	return PageID(s.pages - 1), nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// Sync flushes the file, every allocated page included, to stable
// storage.
func (s *FileStore) Sync() error {
	if err := s.extend(); err != nil {
		return err
	}
	return s.f.Sync()
}

// WriteFileAtomic lands a file at path whole or not at all: write fills a
// temp file in path's directory, which is fsynced, renamed over path, and
// followed by a sync of the directory so the rename itself survives power
// loss. nosync skips both syncs. On any error the temp file is removed and
// path keeps its old content; a crash leaves at most a temp file named
// .<base>-*.tmp, which a sweep of *.tmp files clears.
func WriteFileAtomic(path string, nosync bool, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if !nosync {
		if err = tmp.Sync(); err != nil {
			return err
		}
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if !nosync {
		if d, derr := os.Open(dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}
