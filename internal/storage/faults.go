package storage

import (
	"fmt"
)

// FaultStore wraps a Store and fails operations on schedule; tests use it
// to verify that I/O errors propagate cleanly through the pool, heap
// files, sorts, joins, and miners instead of corrupting state or
// panicking.
type FaultStore struct {
	Inner Store

	// FailReadAfter fails every read once this many pages have been
	// read (negative = never). Multi-page calls count page by page: the
	// pages before the fault transfer, the call returns the fault.
	FailReadAfter int
	// FailWriteAfter fails every write once this many pages have been
	// written (negative = never), counting as FailReadAfter does.
	FailWriteAfter int
	// FailAllocAfter fails every Allocate once this many allocations have
	// succeeded (negative = never).
	FailAllocAfter int

	reads, writes, allocs int
}

// NewFaultStore wraps inner with all fault triggers disabled.
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{Inner: inner, FailReadAfter: -1, FailWriteAfter: -1, FailAllocAfter: -1}
}

// ErrInjected is the sentinel failure; errors.Is-compatible via wrapping.
var ErrInjected = fmt.Errorf("storage: injected fault")

// allowed is how many of n more pages a schedule lets through after done.
func allowed(failAfter, done, n int) int {
	if failAfter < 0 || done+n <= failAfter {
		return n
	}
	return max(failAfter-done, 0)
}

// ReadPages implements Store.
func (s *FaultStore) ReadPages(id PageID, dst []byte) error {
	n := len(dst) / PageSize
	ok := allowed(s.FailReadAfter, s.reads, n)
	s.reads += ok
	if err := s.Inner.ReadPages(id, dst[:ok*PageSize]); err != nil || ok == n {
		return err
	}
	return fmt.Errorf("read page %d: %w", int(id)+ok, ErrInjected)
}

// WritePages implements Store.
func (s *FaultStore) WritePages(id PageID, src []byte) error {
	n := len(src) / PageSize
	ok := allowed(s.FailWriteAfter, s.writes, n)
	s.writes += ok
	if err := s.Inner.WritePages(id, src[:ok*PageSize]); err != nil || ok == n {
		return err
	}
	return fmt.Errorf("write page %d: %w", int(id)+ok, ErrInjected)
}

// Allocate implements Store.
func (s *FaultStore) Allocate() (PageID, error) {
	if s.FailAllocAfter >= 0 && s.allocs >= s.FailAllocAfter {
		return 0, fmt.Errorf("allocate: %w", ErrInjected)
	}
	s.allocs++
	return s.Inner.Allocate()
}

// NumPages implements Store.
func (s *FaultStore) NumPages() int { return s.Inner.NumPages() }
