package setm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"setm/internal/storage"
)

// TestSaveDatasetAtomicMidWriteCrash kills a write mid-stream through the
// atomic writer SaveDatasetFile uses (storage.WriteFileAtomic) and
// checks the previously saved dataset survives untouched — the
// server-critical property os.Create-in-place lacked.
func TestSaveDatasetAtomicMidWriteCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.txt")
	good := &Dataset{Transactions: []Transaction{
		{ID: 1, Items: []Item{1, 2, 3}},
		{ID: 2, Items: []Item{2, 3}},
	}}
	if err := SaveDatasetFile(path, good); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("killed mid-write")
	err = storage.WriteFileAtomic(path, false, func(w io.Writer) error {
		// A partial, corrupt prefix reaches the temp file before death.
		if _, werr := io.WriteString(w, "1 1\n2 "); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic error = %v, want the injected failure", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination unreadable after failed save: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("failed save corrupted destination:\n got %q\nwant %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("failed save left temp debris: %v", names)
	}

	// A successful save over an existing file still works and replaces it.
	bigger := &Dataset{Transactions: []Transaction{{ID: 9, Items: []Item{7}}}}
	if err := SaveDatasetFile(path, bigger); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Transactions) != 1 || back.Transactions[0].ID != 9 {
		t.Fatalf("reloaded dataset = %+v, want the replacement", back.Transactions)
	}
}

// TestReadDatasetHugeBasketLine feeds a basket-per-line record well past
// bufio.Scanner's old 4 MB cap: it must parse, and line numbering in
// errors must stay correct after the monster line.
func TestReadDatasetHugeBasketLine(t *testing.T) {
	const items = 700_000 // ~5.5 MB of 7-digit items on one line
	var sb strings.Builder
	sb.WriteString("1")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&sb, " %d", 1_000_000+i)
	}
	sb.WriteString("\n2 5\n")
	d, err := ReadDataset(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadDataset on >4MB basket line: %v", err)
	}
	if len(d.Transactions) != 2 {
		t.Fatalf("got %d transactions, want 2", len(d.Transactions))
	}
	if n := len(d.Transactions[0].Items); n != items {
		t.Fatalf("basket has %d items, want %d", n, items)
	}
	if d.Transactions[0].Items[items-1] != Item(1_000_000+items-1) {
		t.Fatalf("last item = %d", d.Transactions[0].Items[items-1])
	}

	// An error after the huge line must report the correct line number.
	bad := sb.String() + "3 oops\n"
	_, err = ReadDataset(strings.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error after huge line = %v, want line 3 context", err)
	}
}

// TestReadDatasetErrorTruncatesLine: a malformed multi-kilobyte line must
// not reproduce itself wholesale in the error text.
func TestReadDatasetErrorTruncatesLine(t *testing.T) {
	long := strings.Repeat("x", 10_000)
	_, err := ReadDataset(strings.NewReader(long + "\n"))
	if err == nil {
		t.Fatal("malformed line parsed")
	}
	if len(err.Error()) > 300 {
		t.Fatalf("error message is %d bytes; line not truncated", len(err.Error()))
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error %v lacks line context", err)
	}
}

// TestReadDatasetMemoryFollowsContent: what a read data set keeps alive is
// sized by what was parsed, not by an estimate taken from the text — the
// head of the input says nothing about its tail, and a line need not
// carry an item.
func TestReadDatasetMemoryFollowsContent(t *testing.T) {
	var skewed, oneTid strings.Builder
	for i := 1; i <= 65; i++ { // short head, long tail
		fmt.Fprintf(&skewed, "%d 1\n", i)
	}
	skewed.WriteString("66")
	for i := 0; i < 300_000; i++ {
		fmt.Fprintf(&skewed, " %d", 1_000_000+i)
	}
	skewed.WriteString("\n")
	for i := 0; i < 100_000; i++ { // many lines of one tid, then new tids
		fmt.Fprintf(&oneTid, "1 %d\n", i)
	}
	for i := 2; i <= 1000; i++ {
		fmt.Fprintf(&oneTid, "%d 1\n", i)
	}
	for _, tc := range []struct{ name, text string }{
		{"short head, long tail", skewed.String()},
		{"one tid, then many", oneTid.String()},
		{"mostly comments", "1 2\n" + strings.Repeat("#\n", 2_000_000)},
		{"mostly blank", strings.Repeat("\n", 4_000_000) + "1 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			liveHeap := func() int64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			before := liveHeap()
			d, err := ReadDataset(strings.NewReader(tc.text))
			if err != nil {
				t.Fatal(err)
			}
			held := liveHeap() - before
			n := len(d.Transactions)
			if c := cap(d.Transactions); c > n+n/2+64 {
				t.Errorf("cap(Transactions) = %d for %d transactions", c, n)
			}
			parsed := int64(n)*int64(unsafe.Sizeof(Transaction{})) + 8*int64(d.NumSalesRows())
			if held > parsed+parsed/2+256<<10 {
				t.Errorf("the data set holds %d KB, its %d transactions and %d items are %d KB",
					held>>10, n, d.NumSalesRows(), parsed>>10)
			}
			runtime.KeepAlive(d)
		})
	}
}

// readDatasetRef is the reader ReadDataset replaced, kept verbatim as the
// differential oracle of FuzzReadDataset: ReadString per line,
// strings.FieldsFunc per field, strconv.ParseInt per number, a map from
// trans_id to basket, and a sort of the ids.
func readDatasetRef(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	byTid := make(map[int64][]Item)
	var order []int64
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("setm: line %d: %w", lineNo+1, err)
		}
		atEOF := err == io.EOF
		if line != "" {
			lineNo++
			if perr := parseSalesLineRef(line, lineNo, byTid, &order); perr != nil {
				return nil, perr
			}
		}
		if atEOF {
			break
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("setm: no transactions in input")
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	d := &Dataset{Transactions: make([]Transaction, 0, len(order))}
	for _, tid := range order {
		d.Transactions = append(d.Transactions, Transaction{ID: tid, Items: byTid[tid]})
	}
	return d, nil
}

// parseSalesLineRef folds one SALES line into the accumulating transaction
// map, accepting both pair-per-line and basket-per-line forms.
func parseSalesLineRef(line string, lineNo int, byTid map[int64][]Item, order *[]int64) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
	if len(fields) < 2 {
		return fmt.Errorf("setm: line %d: want \"trans_id item\", got %q", lineNo, truncForErr(line))
	}
	tid, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return fmt.Errorf("setm: line %d: bad trans_id %q", lineNo, fields[0])
	}
	if _, ok := byTid[tid]; !ok {
		*order = append(*order, tid)
	}
	for _, f := range fields[1:] {
		item, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return fmt.Errorf("setm: line %d: bad item %q", lineNo, f)
		}
		byTid[tid] = append(byTid[tid], Item(item))
	}
	return nil
}

// readDatasetSeeds is FuzzReadDataset's committed corpus: every shape of
// the grammar and every way out of it the reader has an error for.
var readDatasetSeeds = []string{
	"1 10\n1 20\n2 10\n3 30\n",                // pair form
	"1 10 20 30\n2 10\n",                      // basket form
	"1\t10,20\n2,,30\t\t40 \n",                // tabs and commas, runs of separators
	"1 10\r\n1 20\r\n2 30\r\n",                // CRLF
	"# sales\n\n1 10\n  # indented\n\n2 20\n", // comments and blank lines
	"1 10\n2 20",                              // no trailing newline
	"3 1\n2 1\n1 1\n",                         // descending tids
	"1 10\n2 20\n1 30\n3 5\n2 1\n",            // a tid repeated non-contiguously
	"1 7 7 3 7\n1 3\n",                        // duplicate items
	"+7 -3\n-3 +7\n",                          // signs
	"9223372036854775807 -9223372036854775808\n-0 007\n",
	"1 99999999999999999999\n",             // a 20-digit overflow
	"18446744073709551617 1\n",             // wraps a uint64
	"1 9223372036854775808\n",              // one past the int64 range
	"1 -\n",                                // a lone sign
	"- 1\n",                                //
	"1 2\x003\n",                           // NUL
	"1 2\u00a0\n\u00a03 4\n",               // U+00A0 at line ends
	"1 2\u0085\n",                          // U+0085
	"1\u00a02\n",                           // ... but not a separator
	"1 2\v\f\n\v3 4\n1\v2 5\n",             // ASCII space that only trims
	",#x\n",                                // a comment starts the trimmed line only
	" \t#x\n,\n",                           // separators alone
	strings.Repeat("x", 200) + "\n",        // a one-field line > 128 bytes
	"1 " + strings.Repeat("9", 200) + "\n", // a bad item is quoted whole
	"1 2 x3\n", "1 2_3\n", "1 0x10\n", "1 1e3\n", "1 ++2\n", "12\n", "\xff\xfe 1\n",
	"", "\n\n", "#\n",
}

// FuzzReadDataset holds the byte-scan reader to the reader it replaced, on
// arbitrary bytes: same accept/reject, same error text, the same
// transactions, and a text form that one round trip makes canonical.
func FuzzReadDataset(f *testing.F) {
	for _, s := range readDatasetSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantErr := readDatasetRef(bytes.NewReader(in))
		got, err := ReadDataset(bytes.NewReader(in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ReadDataset(%q): error %v, reference %v", in, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got.Transactions, want.Transactions) {
			t.Fatalf("ReadDataset(%q):\n got %v\nwant %v", in, got.Transactions, want.Transactions)
		}
		for i := 1; i < len(got.Transactions); i++ {
			if got.Transactions[i].ID <= got.Transactions[i-1].ID {
				t.Fatalf("ReadDataset(%q): trans_ids not ascending at %d: %v", in, i, got.Transactions)
			}
		}
		if !reflect.DeepEqual(got.SalesRows(), want.SalesRows()) {
			t.Fatalf("ReadDataset(%q): SalesRows %v, reference %v", in, got.SalesRows(), want.SalesRows())
		}
		var once, twice bytes.Buffer
		if err := WriteDataset(&once, got); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDataset(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %v", in, err)
		}
		if err := WriteDataset(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("WriteDataset∘ReadDataset not idempotent on %q:\n once %q\ntwice %q", in, once.Bytes(), twice.Bytes())
		}
		// The baskets share one backing array; growing one must not reach
		// into its neighbour.
		for _, tx := range got.Transactions {
			_ = append(tx.Items, math.MinInt64)
		}
		if !reflect.DeepEqual(got.Transactions, want.Transactions) {
			t.Fatalf("ReadDataset(%q): an append to one basket overwrote another: %v", in, got.Transactions)
		}
	})
}

// TestReadDatasetReadError: a read that dies mid-body is reported against
// the line it died in — after any parse error in the lines that arrived
// whole — exactly as the line-at-a-time reader did.
func TestReadDatasetReadError(t *testing.T) {
	boom := errors.New("connection reset")
	for _, arrived := range []string{"", "1 2", "1 2\n", "1 2\n3 4\n5 ", "1 2\nx y\n5 6", "# c\n\n"} {
		body := func() io.Reader { return io.MultiReader(strings.NewReader(arrived), iotest.ErrReader(boom)) }
		_, want := readDatasetRef(body())
		_, err := ReadDataset(body())
		if err == nil || err.Error() != want.Error() {
			t.Errorf("read dying after %q: error %v, reference %v", arrived, err, want)
		}
		if strings.Contains(arrived, "x") == errors.Is(err, boom) {
			t.Errorf("read dying after %q: error %v wraps the cause: %v", arrived, err, errors.Is(err, boom))
		}
	}
}
