package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// PaperExample is the 10-transaction data set of Figure 1 with items
// A..H mapped to 1..8.
func PaperExample() *Dataset {
	const (
		A, B, C, D, E, F, G, H = 1, 2, 3, 4, 5, 6, 7, 8
	)
	tx := []Transaction{
		{ID: 10, Items: []Item{A, B, C}},
		{ID: 20, Items: []Item{A, B, D}},
		{ID: 30, Items: []Item{A, B, C}},
		{ID: 40, Items: []Item{B, C, D}},
		{ID: 50, Items: []Item{A, C, G}},
		{ID: 60, Items: []Item{A, D, G}},
		{ID: 70, Items: []Item{A, E, H}},
		{ID: 80, Items: []Item{D, E, F}},
		{ID: 90, Items: []Item{D, E, F}},
		{ID: 99, Items: []Item{D, E, F}},
	}
	return &Dataset{Transactions: tx}
}

// paperOpts is the example's 30% minimum support (3 transactions).
var paperOpts = Options{MinSupportFrac: 0.30}

func countsAsMap(cs []ItemsetCount) map[string]int64 {
	out := make(map[string]int64, len(cs))
	for _, c := range cs {
		key := ""
		for _, it := range c.Items {
			key += string(rune('A' + it - 1))
		}
		out[key] = c.Count
	}
	return out
}

func TestPaperExampleMemory(t *testing.T) {
	res, err := MineMemory(PaperExample(), paperOpts)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperExample(t, res)
}

func TestPaperExamplePaged(t *testing.T) {
	res, err := MinePaged(PaperExample(), paperOpts, PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkPaperExample(t, res.Result)
	if res.IO.Accesses() < 0 {
		t.Error("negative I/O accounting")
	}
}

func TestPaperExampleSQL(t *testing.T) {
	res, err := MineSQL(PaperExample(), paperOpts, SQLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkPaperExample(t, res)
}

// checkPaperExample verifies C_1..C_3 against Figures 1–3 of the paper.
func checkPaperExample(t *testing.T, res *Result) {
	t.Helper()
	if res.MinSupport != 3 {
		t.Errorf("MinSupport = %d, want 3", res.MinSupport)
	}
	// C_1 (Figure 1): A:6 B:4 C:4 D:6 E:4 F:3 (G:2 and H:1 are dropped).
	wantC1 := map[string]int64{"A": 6, "B": 4, "C": 4, "D": 6, "E": 4, "F": 3}
	if got := countsAsMap(res.C(1)); !reflect.DeepEqual(got, wantC1) {
		t.Errorf("C1 = %v, want %v", got, wantC1)
	}
	// C_2 (Figure 2): AB:3 AC:3 BC:3 DE:3 DF:3 EF:3.
	wantC2 := map[string]int64{"AB": 3, "AC": 3, "BC": 3, "DE": 3, "DF": 3, "EF": 3}
	if got := countsAsMap(res.C(2)); !reflect.DeepEqual(got, wantC2) {
		t.Errorf("C2 = %v, want %v", got, wantC2)
	}
	// C_3 (Figure 3): DEF:3 only.
	wantC3 := map[string]int64{"DEF": 3}
	if got := countsAsMap(res.C(3)); !reflect.DeepEqual(got, wantC3) {
		t.Errorf("C3 = %v, want %v", got, wantC3)
	}
	if res.MaxLen() != 3 {
		t.Errorf("MaxLen = %d, want 3", res.MaxLen())
	}
}

func TestPaperExampleR2Contents(t *testing.T) {
	// Figure 2's R_2: the supported pairs per transaction. Transaction 10
	// (A,B,C) contributes AB, AC, BC; transaction 80 (D,E,F) contributes
	// DE, DF, EF; transaction 50 (A,C,G) contributes only AC.
	res, err := MineMemory(PaperExample(), paperOpts)
	if err != nil {
		t.Fatal(err)
	}
	// R_2 row count: tx 10,30 contribute 3 each (AB,AC,BC); 20 contributes
	// AB only (AD:2, BD:2 unsupported); 40 contributes BC; 50 AC; 60 none
	// (AD:2, AG, DG); 70 none; 80,90,99 contribute 3 each (DE,DF,EF).
	// Total = 3+1+3+1+1+0+0+3+3+3 = 18.
	if res.Stats[1].RRows != 18 {
		t.Errorf("|R_2| = %d, want 18", res.Stats[1].RRows)
	}
	// R_3: tx 80,90,99 contribute DEF = 3 rows.
	if res.Stats[2].RRows != 3 {
		t.Errorf("|R_3| = %d, want 3", res.Stats[2].RRows)
	}
}

func TestDriversAgreeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		d := randomDataset(rng, 60, 8, 20)
		opts := Options{MinSupportCount: int64(2 + trial)}
		mem, err := MineMemory(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		paged, err := MinePaged(d, opts, PagedConfig{PoolFrames: 32})
		if err != nil {
			t.Fatal(err)
		}
		sqlRes, err := MineSQL(d, opts, SQLConfig{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameCounts(t, "paged", mem, paged.Result)
		assertSameCounts(t, "sql", mem, sqlRes)
	}
}

func assertSameCounts(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Counts) != len(b.Counts) {
		t.Fatalf("%s: iterations %d vs %d", label, len(a.Counts), len(b.Counts))
	}
	for k := 1; k <= len(a.Counts); k++ {
		ca, cb := countsAsMap(a.C(k)), countsAsMap(b.C(k))
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: C_%d differs:\n  a=%v\n  b=%v", label, k, ca, cb)
		}
	}
}

// randomDataset builds n transactions with up to maxLen items drawn from
// [1, nItems].
func randomDataset(rng *rand.Rand, n, maxLen, nItems int) *Dataset {
	d := &Dataset{}
	for i := 0; i < n; i++ {
		ln := 1 + rng.Intn(maxLen)
		items := make([]Item, ln)
		for j := range items {
			items[j] = Item(1 + rng.Intn(nItems))
		}
		d.Transactions = append(d.Transactions, Transaction{ID: int64(i + 1), Items: items})
	}
	return d
}

func TestSupportLookup(t *testing.T) {
	res, err := MineMemory(PaperExample(), paperOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Support([]Item{1, 2}); got != 3 { // AB
		t.Errorf("Support(AB) = %d, want 3", got)
	}
	if got := res.Support([]Item{1}); got != 6 { // A
		t.Errorf("Support(A) = %d, want 6", got)
	}
	if got := res.Support([]Item{7}); got != 0 { // G infrequent
		t.Errorf("Support(G) = %d, want 0", got)
	}
	if got := res.Support([]Item{4, 5, 6}); got != 3 { // DEF
		t.Errorf("Support(DEF) = %d, want 3", got)
	}
	if got := res.Support([]Item{1, 2, 3, 4}); got != 0 {
		t.Errorf("Support(len-4) = %d, want 0", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := MineMemory(&Dataset{}, paperOpts); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := MineMemory(PaperExample(), Options{}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := MineMemory(PaperExample(), Options{MinSupportFrac: 1.5}); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestResolveMinSupport(t *testing.T) {
	cases := []struct {
		o    Options
		n    int
		want int64
	}{
		{Options{MinSupportCount: 5}, 100, 5},
		{Options{MinSupportFrac: 0.30}, 10, 3},
		{Options{MinSupportFrac: 0.001}, 100, 1}, // floor at 1
		{Options{MinSupportFrac: 0.005}, 46873, 234},
	}
	for _, c := range cases {
		if got := c.o.ResolveMinSupport(c.n); got != c.want {
			t.Errorf("ResolveMinSupport(%+v, %d) = %d, want %d", c.o, c.n, got, c.want)
		}
	}
}

func TestMaxPatternLenStopsEarly(t *testing.T) {
	res, err := MineMemory(PaperExample(), Options{MinSupportFrac: 0.3, MaxPatternLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) != 2 {
		t.Errorf("Counts len = %d, want 2", len(res.Counts))
	}
	if res.MaxLen() != 2 {
		t.Errorf("MaxLen = %d", res.MaxLen())
	}
}

func TestDuplicateItemsInTransaction(t *testing.T) {
	// An item listed twice in one transaction must count once.
	d := &Dataset{Transactions: []Transaction{
		{ID: 1, Items: []Item{5, 5, 5}},
		{ID: 2, Items: []Item{5}},
	}}
	res, err := MineMemory(d, Options{MinSupportCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Support([]Item{5}); got != 2 {
		t.Errorf("Support(5) = %d, want 2", got)
	}
	if len(res.C(1)) != 1 {
		t.Errorf("C1 = %v", res.C(1))
	}
}

func TestSingleItemTransactionsProduceNoPairs(t *testing.T) {
	d := &Dataset{Transactions: []Transaction{
		{ID: 1, Items: []Item{1}},
		{ID: 2, Items: []Item{1}},
		{ID: 3, Items: []Item{2}},
	}}
	res, err := MineMemory(d, Options{MinSupportCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLen() != 1 {
		t.Errorf("MaxLen = %d, want 1", res.MaxLen())
	}
}

func TestHighSupportYieldsEmpty(t *testing.T) {
	res, err := MineMemory(PaperExample(), Options{MinSupportCount: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPatterns() != 0 {
		t.Errorf("patterns = %d, want 0", res.TotalPatterns())
	}
}

func TestStatsConsistency(t *testing.T) {
	// Property: for every iteration, |R_k| <= |R'_k| and C_k counts are >=
	// minsup; RPaperBytes matches rows × (k+1) × 4.
	rng := rand.New(rand.NewSource(99))
	d := randomDataset(rng, 100, 6, 12)
	res, err := MineMemory(d, Options{MinSupportCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stats {
		if st.RRows > st.RPrimeRows {
			t.Errorf("iter %d: |R_k| %d > |R'_k| %d", i, st.RRows, st.RPrimeRows)
		}
		if st.RPaperBytes != st.RRows*paperTupleBytes(st.K) {
			t.Errorf("iter %d: paper bytes inconsistent", i)
		}
	}
	for k := 1; k <= len(res.Counts); k++ {
		for _, c := range res.C(k) {
			if c.Count < res.MinSupport {
				t.Errorf("C_%d contains %v below support", k, c)
			}
			if len(c.Items) != k {
				t.Errorf("C_%d contains pattern of length %d", k, len(c.Items))
			}
			for i := 1; i < len(c.Items); i++ {
				if c.Items[i-1] >= c.Items[i] {
					t.Errorf("C_%d pattern %v not lexicographically ordered", k, c.Items)
				}
			}
		}
	}
}

func TestMonotoneSupportProperty(t *testing.T) {
	// Raising minimum support can only shrink the pattern sets.
	rng := rand.New(rand.NewSource(7))
	d := randomDataset(rng, 120, 7, 10)
	lo, err := MineMemory(d, Options{MinSupportCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := MineMemory(d, Options{MinSupportCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	if hi.TotalPatterns() > lo.TotalPatterns() {
		t.Errorf("higher support found more patterns: %d > %d", hi.TotalPatterns(), lo.TotalPatterns())
	}
	// Every pattern frequent at 6 must be frequent at 3 with equal count.
	for k := 1; k <= len(hi.Counts); k++ {
		for _, c := range hi.C(k) {
			if lo.Support(c.Items) != c.Count {
				t.Errorf("pattern %v: count %d at hi, %d at lo", c.Items, c.Count, lo.Support(c.Items))
			}
		}
	}
}

func TestSalesRowsNormalization(t *testing.T) {
	d := &Dataset{Transactions: []Transaction{
		{ID: 2, Items: []Item{3, 1, 3}},
		{ID: 1, Items: []Item{2}},
	}}
	rows := d.SalesRows()
	want := [][2]int64{{1, 2}, {2, 1}, {2, 3}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("SalesRows = %v, want %v", rows, want)
	}
	if d.NumSalesRows() != 3 {
		t.Errorf("NumSalesRows = %d", d.NumSalesRows())
	}
}

// salesRowsRef is the definition of SalesRows, written naively: a set of
// items per transaction, every row sorted.
func salesRowsRef(d *Dataset) [][2]int64 {
	rows := [][2]int64{}
	for _, tx := range d.Transactions {
		seen := map[Item]bool{}
		for _, it := range tx.Items {
			if !seen[it] {
				seen[it] = true
				rows = append(rows, [2]int64{tx.ID, it})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][0] != rows[j][0] {
			return rows[i][0] < rows[j][0]
		}
		return rows[i][1] < rows[j][1]
	})
	return rows
}

// TestSalesRowsLinearPath: SalesRows agrees with the naive reference on
// normalized input (into an exactly-sized slice) and on everything that
// needs the sorts: unsorted transactions, unsorted or duplicated items,
// and one trans_id spread over several transactions (whose rows are kept
// once per transaction). Every shape runs twice:
// over a dense catalogue (the dictionary's look-up table) and over item
// ids 2^35 apart with trans_ids far below zero (binary search, sign flip).
func TestSalesRowsLinearPath(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 800; trial++ {
		shape := trial % 5 // 0: normalized, 1: +shuffled items, 2: +duplicate items, 3: +shuffled txns, 4: +repeated tids
		sparse := trial%10 >= 5
		scale, tid := Item(1), int64(rng.Intn(10))-5
		if sparse {
			scale, tid = 1<<35, tid-1<<40
		}
		d := &Dataset{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			var items []Item
			for it := Item(-2); it < 10; it++ {
				if rng.Intn(3) == 0 {
					items = append(items, it*scale)
				}
			}
			if shape >= 2 && len(items) > 0 {
				items = append(items, items[rng.Intn(len(items))])
			}
			if shape >= 1 {
				rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
			}
			d.Transactions = append(d.Transactions, Transaction{ID: tid, Items: items})
			if shape < 4 || rng.Intn(3) > 0 {
				tid += 1 + int64(rng.Intn(3))
			}
		}
		if shape >= 3 {
			rng.Shuffle(len(d.Transactions), func(a, b int) {
				d.Transactions[a], d.Transactions[b] = d.Transactions[b], d.Transactions[a]
			})
		}
		want := salesRowsRef(d)
		got := d.SalesRows()
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("shape %d %v: SalesRows %v, reference %v", shape, d.Transactions, got, want)
		}
		if shape == 0 && cap(got) != len(got) {
			t.Fatalf("normalized input: %d rows in a slice of %d", len(got), cap(got))
		}
		if dict := d.packed().dict; sparse && len(dict.items) > 1 && dict.lut != nil {
			t.Fatalf("item ids %d apart: the dictionary has a look-up table", scale)
		}
	}
}

// TestDatasetMemoStaleness: the packed memo follows the Transactions
// header. After each change — shortened in place, appended within the
// array's capacity (same address, new length), appended past it, and
// replaced by another slice of the same length — a mine of the dataset
// equals one of a fresh Dataset holding the same transactions, and so do
// SalesRows and NumSalesRows.
func TestDatasetMemoStaleness(t *testing.T) {
	d := signedDataset(31, 300, 8, 40)
	extra := signedDataset(32, 120, 8, 40).Transactions
	for i := range extra {
		extra[i].ID += 1 << 20 // beyond every tid of d
	}
	opts := Options{MinSupportCount: 6}
	check := func(label string) {
		t.Helper()
		got, err := MineAuto(d, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := MineAuto(&Dataset{Transactions: slices.Clone(d.Transactions)}, opts)
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		assertSameCounts(t, label, want, got)
		if rows := d.SalesRows(); !reflect.DeepEqual(rows, salesRowsRef(d)) || d.NumSalesRows() != len(rows) {
			t.Fatalf("%s: SalesRows (%d, NumSalesRows %d) differ from the reference", label, len(rows), d.NumSalesRows())
		}
	}
	check("first mine")
	d.Transactions = d.Transactions[:250]
	check("shortened")
	d.Transactions = append(d.Transactions, extra[:50]...)
	check("appended within capacity")
	d.Transactions = append(d.Transactions, extra[50:]...)
	check("appended past capacity")
	d.Transactions = slices.Clone(signedDataset(33, len(d.Transactions), 8, 40).Transactions)
	check("replaced, same length")
}

// TestDatasetMemoConcurrent: one Dataset mined from four goroutines at
// once — MineAuto at two workers, MineAuto under an 8 MiB budget (a
// spilled plan from k=1 whose passes read R_1 in place from the memo,
// though it outgrows the budget's appender share), MineSQL, and
// SalesRows, which is all WriteDataset reads.
// Every result equals the flat reference and the memo's rows are the
// same after as before. A cold dataset read from four goroutines builds
// one relation however many of them build it.
func TestDatasetMemoConcurrent(t *testing.T) {
	cold := signedDataset(40, 500, 8, 40)
	want := len(salesRowsRef(cold))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := cold.NumSalesRows(); n != want {
				t.Errorf("cold NumSalesRows = %d, want %d", n, want)
			}
		}()
	}
	wg.Wait()

	d := signedDataset(7, 22000, 12, 400)
	opts := Options{MinSupportFrac: 0.01}
	ref := opts
	ref.DisablePackedKernels = true
	flat, err := MineMemory(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := salesRowsRef(d)
	memo := d.packed()
	before := slices.Clone(memo.rows)

	budgeted := opts
	budgeted.MemoryBudget = 8 << 20
	parallel := opts
	parallel.MaxWorkers = 2
	mines := []struct {
		name string
		mine func() (*Result, error)
	}{
		{"auto W=2", func() (*Result, error) { return MineAuto(d, parallel) }},
		{"auto 8 MiB", func() (*Result, error) { return MineAuto(d, budgeted) }},
		{"sql", func() (*Result, error) { return MineSQL(d, opts, SQLConfig{}) }},
	}
	results := make([]*Result, len(mines))
	errs := make([]error, len(mines))
	var rows [][2]int64
	for i, m := range mines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = m.mine()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows = d.SalesRows()
	}()
	wg.Wait()

	for i, m := range mines {
		if errs[i] != nil {
			t.Fatalf("%s: %v", m.name, errs[i])
		}
		assertSameCounts(t, m.name, flat, results[i])
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("SalesRows: %d rows differ from the reference's %d", len(rows), len(wantRows))
	}
	if k1 := results[1].Stats[0]; k1.Plan.Regime != RegimeSpilled || k1.RunsSpilled != 0 || k1.PageIO != 0 {
		t.Errorf("8 MiB budget: k=1 ran %s with %d runs and %d page I/Os; want a spilled plan that leaves R_1 (%d rows) in the memo",
			k1.Plan, k1.RunsSpilled, k1.PageIO, len(before))
	}
	if capRows := (&execStepper{budget: budgeted.MemoryBudget}).capRows(); len(before) <= capRows {
		t.Errorf("setup: R_1's %d rows fit the 8 MiB budget's appender share of %d", len(before), capRows)
	}
	if d.packed() != memo {
		t.Fatal("the memo was rebuilt under an unchanged Transactions header")
	}
	if !slices.Equal(memo.rows, before) {
		t.Fatalf("a mine wrote into the memo's %d rows", len(before))
	}
}
