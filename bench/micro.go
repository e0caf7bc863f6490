package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"setm"
	"setm/internal/core"
	"setm/internal/storage"
	"setm/internal/wal"
	"setm/internal/xsort"
)

// sortProbe times the packed sort and spill primitives on n shuffled
// (tid, key) rows — n is the workload's |R'_2|, capped — with run files on
// disk behind a 256-frame pool, the way the spilled regime uses them.
func sortProbe(n int, runBytes int64, seed int64, tmp string, rep *report, tl *tally) {
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	pristine := make([]storage.PackedRow, n)
	for i := range pristine {
		pristine[i] = storage.PackedRow{Tid: uint64(rng.Intn(n)), Key: uint64(rng.Int63n(1 << 40))}
	}
	rows := make([]storage.PackedRow, n)
	tmpRows := make([]storage.PackedRow, n)
	keys, tmpKeys := make([]uint64, n), make([]uint64, n)
	var radixRows, radixKeys samples
	for i := 0; i < 3; i++ {
		copy(rows, pristine)
		start := time.Now()
		xsort.RadixSortRows(rows, tmpRows)
		radixRows.add(time.Since(start))
		for j := range keys {
			keys[j] = pristine[j].Key
		}
		start = time.Now()
		xsort.RadixSortU64(keys, tmpKeys)
		radixKeys.add(time.Since(start))
	}
	rep.add("xsort.radix_rows_mrows_per_s", "Mrows/s", ratio(float64(n)/1e6, median(radixRows)))
	rep.add("xsort.radix_u64_mkeys_per_s", "Mkeys/s", ratio(float64(n)/1e6, median(radixKeys)))

	path := filepath.Join(tmp, "probe.pages")
	fs, err := storage.OpenFileStore(path)
	if err != nil {
		tl.note(err)
		return
	}
	defer os.Remove(path)
	defer fs.Close()
	pool := storage.NewPool(fs, spillPoolFrames)
	mb := float64(n) * 16 / 1e6

	// Spill budget-sized sorted runs, then stream the k-way merge back.
	chunk := max(2, int(runBytes/16))
	copy(rows, pristine)
	start := time.Now()
	var runs []storage.Run
	for lo := 0; lo < n; lo += chunk {
		part := rows[lo:min(n, lo+chunk)]
		xsort.RadixSortRows(part, tmpRows)
		run, err := xsort.SpillRows(pool, part)
		if err != nil {
			tl.note(err)
			return
		}
		runs = append(runs, run)
	}
	merged, ordered := 0, true
	var prev storage.PackedRow
	err = xsort.MergeRows(pool, runs, xsort.FanIn(pool.Capacity()), func(r storage.PackedRow) error {
		if merged > 0 && r.Less(prev) {
			ordered = false
		}
		prev = r
		merged++
		return nil
	})
	spillMerge := time.Since(start).Seconds()
	if err == nil && (merged != n || !ordered) {
		err = fmt.Errorf("sort probe: merged %d of %d rows, ordered=%v", merged, n, ordered)
	}
	tl.note(err)
	rep.add("xsort.spill_merge_mb_per_s", "MB/s", ratio(mb, spillMerge))

	// The run layer alone: one sequential write of all rows, one read.
	start = time.Now()
	w := storage.NewRunWriter(pool)
	err = w.Rows(rows)
	run, cerr := w.Close()
	if err == nil {
		err = cerr
	}
	if err == nil {
		err = pool.Flush()
	}
	write := time.Since(start).Seconds()
	if err != nil {
		tl.note(err)
		return
	}
	start = time.Now()
	rd := storage.NewRunReader(pool, run)
	words := 0
	for {
		blk, err := rd.Block()
		if err != nil || len(blk) == 0 {
			break
		}
		words += len(blk)
	}
	rd.Close()
	read := time.Since(start).Seconds()
	if words != 2*n {
		tl.note(fmt.Errorf("storage probe: read %d of %d words", words, 2*n))
	}
	run.Free(pool)
	rep.add("storage.run_write_mb_per_s", "MB/s", ratio(mb, write))
	rep.add("storage.run_read_mb_per_s", "MB/s", ratio(mb, read))
	if p := pool.PinnedFrames(); p != 0 {
		tl.note(fmt.Errorf("sort probe: %d buffer frames still pinned", p))
	}
}

// datasetIOProbe times the SALES text codec on an upload body.
func datasetIOProbe(d *core.Dataset, n int, rep *report, tl *tally) {
	var text bytes.Buffer
	var wr, rd samples
	for i := 0; i < n; i++ {
		text.Reset()
		start := time.Now()
		err := setm.WriteDataset(&text, d)
		wr.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
		start = time.Now()
		back, err := setm.ReadDataset(bytes.NewReader(text.Bytes()))
		rd.add(time.Since(start))
		if err == nil && back.NumTransactions() != d.NumTransactions() {
			err = fmt.Errorf("dataset io probe: read back %d of %d transactions", back.NumTransactions(), d.NumTransactions())
		}
		if err != nil {
			tl.note(err)
			return
		}
	}
	mb := float64(text.Len()) / 1e6
	rep.add("setm.read_dataset_mb_per_s", "MB/s", ratio(mb, median(rd)))
	rep.add("setm.write_dataset_mb_per_s", "MB/s", ratio(mb, median(wr)))
}

// walProbe times 200 synced appends of a 256-byte record: what every
// journaled lifecycle transition of a durable setmd costs.
func walProbe(tmp string, n int, rep *report, tl *tally) {
	path := filepath.Join(tmp, "probe.wal")
	log, err := wal.Open(path, nil, wal.Options{})
	if err != nil {
		tl.note(err)
		return
	}
	defer os.Remove(path)
	defer log.Close()
	rec := bytes.Repeat([]byte{0xA5}, 256)
	var s samples
	for i := 0; i < n; i++ {
		start := time.Now()
		err := log.Append(rec)
		s.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
	}
	rep.addMedian("wal.append_sync_us", "us", s, 1e6)
}
