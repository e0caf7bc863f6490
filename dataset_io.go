package setm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"setm/internal/storage"
)

// WriteDataset writes a dataset in the SALES text format: one
// "trans_id item" pair per line, whitespace separated, sorted by
// (trans_id, item) — the canonical form setmd content-addresses: the
// bytes are a function of d.SalesRows() alone.
func WriteDataset(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, row := range d.SalesRows() {
		b := strconv.AppendInt(bw.AvailableBuffer(), row[0], 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, row[1], 10)
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// salesSeps separate the fields of a SALES line; salesSpace is the ASCII
// part of what unicode.IsSpace trims (the rest starts with a byte >= 0x80).
const salesSeps = " \t,"

var salesSep = [256]bool{' ': true, '\t': true, ',': true}
var salesSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// ReadDataset parses the SALES text format back into a dataset, sorted by
// trans_id. A line is "trans_id item [item ...]" — pair-per-line or
// basket-per-line — with fields separated by spaces, tabs, or commas;
// lines of one transaction need not be contiguous, blank lines and lines
// starting with '#' are skipped, duplicate items are kept in arrival
// order, lines may be arbitrarily long, and every error names its line.
//
// The input is read whole and scanned in place: integers accumulate from
// the bytes, no line or field becomes a string, and all items share one
// backing slice that the transactions sub-slice with capacity clipped (an
// append to one basket cannot run into the next). Only a trans_id arriving
// out of order — WriteDataset produces none — makes the reader sort.
func ReadDataset(r io.Reader) (*Dataset, error) {
	var body bytes.Buffer
	_, rerr := body.ReadFrom(r)
	buf := body.Bytes()
	if rerr != nil {
		buf = buf[:bytes.LastIndexByte(buf, '\n')+1] // not the line the read died in
	}

	// One transaction per run of lines naming the same trans_id, in
	// arrival order; until the end only the length of Items counts.
	var txs []Transaction
	var items []Item
	ascending := true
	lineNo, lo := 0, 0
	for pos := 0; pos < len(buf); {
		line := buf[pos:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		pos += len(line) + 1
		lineNo++
		lineLo := len(items)

		for len(line) > 0 && salesSpace[line[0]] {
			line = line[1:]
		}
		for len(line) > 0 && salesSpace[line[len(line)-1]] {
			line = line[:len(line)-1]
		}
		if len(line) > 0 && (line[0] >= 0x80 || line[len(line)-1] >= 0x80) {
			line = bytes.TrimSpace(line)
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var tid int64
		fields := 0
		for i := 0; i < len(line); i++ {
			if salesSep[line[i]] {
				continue
			}
			v, end, ok := scanSalesInt(line, i)
			if !ok || (end < len(line) && !salesSep[line[end]]) {
				return nil, salesFieldError(lineNo, line, i, fields)
			}
			if fields == 0 {
				tid = v
			} else {
				items = append(items, v)
			}
			fields++
			i = end
		}
		if fields < 2 { // no field to blame: the line as a whole
			return nil, salesFieldError(lineNo, line, len(line), 0)
		}
		if n := len(txs); n == 0 || txs[n-1].ID != tid {
			if n > 0 {
				txs[n-1].Items = items[lo:lineLo]
				ascending = ascending && txs[n-1].ID < tid
			}
			txs = append(txs, Transaction{ID: tid})
			lo = lineLo
		}
	}
	if rerr != nil {
		return nil, fmt.Errorf("setm: line %d: %w", lineNo+1, rerr)
	}
	if len(txs) == 0 {
		return nil, fmt.Errorf("setm: no transactions in input")
	}
	txs[len(txs)-1].Items = items[lo:]
	// items has stopped growing: point every basket at its final place.
	lo = 0
	for i := range txs {
		hi := lo + len(txs[i].Items)
		txs[i].Items = items[lo:hi:hi]
		lo = hi
	}
	if !ascending {
		sort.SliceStable(txs, func(i, j int) bool { return txs[i].ID < txs[j].ID })
		n := 0
		for _, tx := range txs[1:] {
			if tx.ID == txs[n].ID {
				txs[n].Items = append(txs[n].Items, tx.Items...)
				continue
			}
			n++
			txs[n] = tx
		}
		txs = txs[:n+1]
	}
	return &Dataset{Transactions: txs}, nil
}

// scanSalesInt reads a base-10 int64 at b[i:] the way strconv.ParseInt
// does — one optional sign, at least one digit, in range — and returns
// where its digits end; what follows there is the caller's to judge.
func scanSalesInt(b []byte, i int) (v int64, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg || (i < len(b) && b[i] == '+') {
		i++
	}
	// n*10+9 fits a uint64 up to this n; one more digit is out of range.
	const cutoff = (math.MaxUint64 - 9) / 10
	var n uint64
	first := i
	ok = true
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if n > cutoff {
			ok = false
			continue
		}
		n = n*10 + uint64(b[i]-'0')
	}
	ok = ok && i > first && (n < 1<<63 || (neg && n == 1<<63))
	if neg {
		n = -n
	}
	return int64(n), i, ok
}

// salesFieldError reports the field of line that starts at i, the field-th,
// as not a number — or the line as a whole when it has no second field.
func salesFieldError(lineNo int, line []byte, i, field int) error {
	bad := line[i:]
	if n := bytes.IndexAny(bad, salesSeps); n >= 0 {
		bad = bad[:n]
	}
	switch {
	case field > 0:
		return fmt.Errorf("setm: line %d: bad item %q", lineNo, bad)
	case len(bytes.TrimLeft(line[i+len(bad):], salesSeps)) > 0:
		return fmt.Errorf("setm: line %d: bad trans_id %q", lineNo, bad)
	}
	return fmt.Errorf("setm: line %d: want \"trans_id item\", got %q", lineNo, truncForErr(string(line)))
}

// truncForErr bounds a quoted line in an error message: a multi-megabyte
// basket line must not reproduce itself in the error text.
func truncForErr(s string) string {
	const max = 128
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

// LoadDatasetFile reads a dataset from a file path.
func LoadDatasetFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDataset(f)
}

// SaveDatasetFile writes a dataset to a file path, atomically and
// durably (storage.WriteFileAtomic): a crash or a failed write leaves any
// existing file at path intact rather than truncated.
func SaveDatasetFile(path string, d *Dataset) error {
	return storage.WriteFileAtomic(path, false, func(w io.Writer) error {
		return WriteDataset(w, d)
	})
}
