package core

// Negative-border snapshots. A SETM run already counts every candidate
// pattern it generates — xsort.CountRuns merely discards the runs below
// minsup. Retaining those discarded (key, count) pairs per iteration —
// the negative border C_k \ F_k — alongside F_k turns a finished mine
// into a resumable *state*: because a candidate's recorded count is its
// true support (an extension row exists for every supporting
// transaction once the prefix is frequent), appending transactions can
// only add to these counts, never change them. MineDelta (delta.go)
// exploits that to refresh a result in O(delta) work.
//
// The snapshot serializes in the checkpoint family's format: one binary
// file (magic, little-endian payload, CRC-32C trailer) written through
// storage.WriteFileAtomic, holding the item dictionary, the minsup floor, and
// per-iteration F_k plus border as (key, count) runs in the executor's key
// layout (pack.go): item codes bit-packed through level 2, and from level
// 3 the prefix's rank in F_{k-1} ahead of the last item's code — so a
// snapshot holds a mine of any depth. A version-1 file, bit-packed at
// every level, is refused with ErrBorder.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"setm/internal/storage"
)

// BorderSnapshot is the retained state of one completed mining run: the
// item dictionary, per-iteration frequent sets and negative border with
// exact counts, and the identity fields MineDelta verifies before
// trusting it.
type BorderSnapshot struct {
	// MinSup is the absolute support threshold the run resolved.
	MinSup int64
	// NumTransactions and SalesRows identify the base dataset (the
	// same identity pair the checkpoint manifest carries).
	NumTransactions int
	SalesRows       int64
	// MaxTid is the largest transaction id in the base dataset; a delta
	// must use strictly greater ids so base+delta is a disjoint append.
	MaxTid int64
	// MaxPatternLen is the Options.MaxPatternLen of the run (0 = until
	// R_k empties); a delta mined under a different cap cannot reuse
	// the snapshot.
	MaxPatternLen int
	// Items is the order-preserving dense dictionary: every distinct
	// item of the base dataset, ascending. Level keys are coded under
	// this dictionary, in the executor's layout (pack.go).
	Items []int64
	// Levels[k-1] holds iteration k's frequent patterns and negative
	// border. One level exists per executed iteration, including a
	// final one with no frequent patterns.
	Levels []BorderLevel
}

// BorderLevel is one iteration's counted candidates, split at minsup:
// ascending keys with their exact support counts. From level 3 a key is
// rank(prefix in the level below's FreqKeys) << bits | last item's code.
type BorderLevel struct {
	FreqKeys     []uint64
	FreqCounts   []int64
	BorderKeys   []uint64
	BorderCounts []int64
}

// ErrBorder tags every failure of the border-snapshot path — a missing
// or corrupt file, or a snapshot that does not match the base dataset
// and options of a delta mine. Callers match it with errors.Is and fall
// back to a full re-mine; it never indicates a problem with the data.
var ErrBorder = errors.New("setm: invalid or mismatched border snapshot")

const (
	borderMagic   = "SETMBR01"
	borderVersion = 2
)

// Bytes estimates the snapshot's resident size — the quantity the
// setmd border_bytes gauge reports and DeltaFootprint charges.
func (b *BorderSnapshot) Bytes() int64 {
	if b == nil {
		return 0
	}
	n := int64(64) + int64(len(b.Items))*8
	for i := range b.Levels {
		l := &b.Levels[i]
		n += int64(len(l.FreqKeys)+len(l.BorderKeys)) * 16
	}
	return n
}

// Candidates returns the total number of counted (key, count) entries
// across all levels — the cardinality DeltaFootprint's merge term uses.
func (b *BorderSnapshot) Candidates() int64 {
	if b == nil {
		return 0
	}
	var n int64
	for i := range b.Levels {
		l := &b.Levels[i]
		n += int64(len(l.FreqKeys) + len(l.BorderKeys))
	}
	return n
}

// SaveBorder persists the snapshot to path atomically (temp + fsync +
// rename, like the checkpoint writer): magic, little-endian payload,
// CRC-32C trailer over the payload.
func SaveBorder(path string, b *BorderSnapshot, nosync bool) error {
	if b == nil {
		return fmt.Errorf("%w: nil snapshot", ErrBorder)
	}
	return storage.WriteFileAtomic(path, nosync, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if _, err := bw.WriteString(borderMagic); err != nil {
			return err
		}
		sum := crc32.New(ckptCRC)
		mw := io.MultiWriter(bw, sum)
		var buf [8]byte
		wu := func(v uint64) error {
			binary.LittleEndian.PutUint64(buf[:], v)
			_, err := mw.Write(buf[:])
			return err
		}
		hdr := []uint64{
			borderVersion,
			uint64(b.MinSup),
			uint64(b.NumTransactions),
			uint64(b.SalesRows),
			uint64(b.MaxTid),
			uint64(b.MaxPatternLen),
			uint64(len(b.Items)),
			uint64(len(b.Levels)),
		}
		for _, v := range hdr {
			if err := wu(v); err != nil {
				return err
			}
		}
		for _, it := range b.Items {
			if err := wu(uint64(it)); err != nil {
				return err
			}
		}
		writeRun := func(keys []uint64, counts []int64) error {
			if err := wu(uint64(len(keys))); err != nil {
				return err
			}
			for i, k := range keys {
				if err := wu(k); err != nil {
					return err
				}
				if err := wu(uint64(counts[i])); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range b.Levels {
			l := &b.Levels[i]
			if err := writeRun(l.FreqKeys, l.FreqCounts); err != nil {
				return err
			}
			if err := writeRun(l.BorderKeys, l.BorderCounts); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(buf[:4], sum.Sum32())
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// LoadBorder reads and fully verifies a snapshot written by SaveBorder.
// Framing or CRC damage, or a key out of range, wraps ErrBorder.
func LoadBorder(path string) (*BorderSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(borderMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBorder, err)
	}
	if string(magic) != borderMagic {
		return nil, fmt.Errorf("%w: wrong magic", ErrBorder)
	}
	sum := crc32.New(ckptCRC)
	var buf [8]byte
	ru := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, fmt.Errorf("%w: truncated: %v", ErrBorder, err)
		}
		sum.Write(buf[:])
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	var hdr [8]uint64
	for i := range hdr {
		v, err := ru()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	if hdr[0] != borderVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBorder, hdr[0])
	}
	const maxEntries = 1 << 40 // sanity bound against corrupt lengths
	nItems, nLevels := hdr[6], hdr[7]
	if nItems > maxEntries || nLevels > 64 {
		return nil, fmt.Errorf("%w: implausible sizes (%d items, %d levels)", ErrBorder, nItems, nLevels)
	}
	b := &BorderSnapshot{
		MinSup:          int64(hdr[1]),
		NumTransactions: int(hdr[2]),
		SalesRows:       int64(hdr[3]),
		MaxTid:          int64(hdr[4]),
		MaxPatternLen:   int(hdr[5]),
		Items:           make([]int64, nItems),
		Levels:          make([]BorderLevel, nLevels),
	}
	for i := range b.Items {
		v, err := ru()
		if err != nil {
			return nil, err
		}
		b.Items[i] = int64(v)
	}
	readRun := func() ([]uint64, []int64, error) {
		n, err := ru()
		if err != nil {
			return nil, nil, err
		}
		if n > maxEntries {
			return nil, nil, fmt.Errorf("%w: implausible run length %d", ErrBorder, n)
		}
		if n == 0 {
			return nil, nil, nil
		}
		keys := make([]uint64, n)
		counts := make([]int64, n)
		for i := range keys {
			if keys[i], err = ru(); err != nil {
				return nil, nil, err
			}
			v, err := ru()
			if err != nil {
				return nil, nil, err
			}
			counts[i] = int64(v)
		}
		return keys, counts, nil
	}
	for i := range b.Levels {
		l := &b.Levels[i]
		var err error
		if l.FreqKeys, l.FreqCounts, err = readRun(); err != nil {
			return nil, err
		}
		if l.BorderKeys, l.BorderCounts, err = readRun(); err != nil {
			return nil, err
		}
	}
	want := sum.Sum32()
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrBorder, err)
	}
	if binary.LittleEndian.Uint32(buf[:4]) != want {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBorder)
	}
	// A key's last code indexes Items and its prefix (none at level 1, a
	// code at 2, from 3 a rank in the level below's FreqKeys) must too.
	bits, n := dictBits(len(b.Items)), uint64(len(b.Items))
	prefixes := []uint64{1, n}
	for i, l := range b.Levels {
		if i >= 2 {
			prefixes = append(prefixes, uint64(len(b.Levels[i-1].FreqKeys)))
		}
		for _, key := range slices.Concat(l.FreqKeys, l.BorderKeys) {
			if key&(1<<bits-1) >= n || key>>bits >= prefixes[i] {
				return nil, fmt.Errorf("%w: level %d key %#x out of range", ErrBorder, i+1, key)
			}
		}
	}
	return b, nil
}

// borderer is implemented by steppers that can assemble a BorderSnapshot
// once the pipeline finishes (today: the adaptive executor).
type borderer interface {
	borderSnapshot(res *Result) *BorderSnapshot
}

// borderSnapshot assembles the retained border state into a snapshot
// in the executor's key layout: the frequent runs re-coded from the
// result (the count step reused their buffers), the borders as counted.
func (s *execStepper) borderSnapshot(res *Result) *BorderSnapshot {
	var maxTid int64
	for i, tx := range s.d.Transactions {
		if i == 0 || tx.ID > maxTid {
			maxTid = tx.ID
		}
	}
	b := &BorderSnapshot{
		MinSup:          res.MinSupport,
		NumTransactions: res.NumTransactions,
		SalesRows:       s.salesTotal,
		MaxTid:          maxTid,
		MaxPatternLen:   s.opts.MaxPatternLen,
		Items:           slices.Clone(s.dict.items),
		Levels:          make([]BorderLevel, len(s.borders)),
	}
	for i, border := range s.borders {
		var freq pkCounts
		if i < len(res.Counts) {
			var prev []ItemsetCount
			if i > 0 {
				prev = res.Counts[i-1]
			}
			freq, _ = encodeLevel(res.Counts[i], prev, i+1, s.dict)
		}
		b.Levels[i] = BorderLevel{
			FreqKeys: freq.Keys, FreqCounts: freq.Counts,
			BorderKeys: border.Keys, BorderCounts: border.Counts,
		}
	}
	return b
}
