package server

// The incremental-refresh surface: POST /datasets/{id}/append derives a
// new content-addressed version with a parent link, and mining the
// derived version patches the parent's cached result through
// core.MineDelta instead of re-mining from scratch — pinned here to be
// bit-identical to the cold answer, observable in the metrics, durable
// across restarts, and correctly guarded (parents with live children
// cannot be deleted, invalid deltas are 400s).

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"setm/internal/core"
)

// testDelta builds appended transactions with ids strictly beyond d.
func testDelta(seed int64, after *core.Dataset, txns int) *core.Dataset {
	rng := rand.New(rand.NewSource(seed))
	next := after.Transactions[len(after.Transactions)-1].ID + 1
	delta := &core.Dataset{}
	for i := 0; i < txns; i++ {
		n := 1 + rng.Intn(6)
		items := make([]core.Item, n)
		for j := range items {
			items[j] = core.Item(1 + rng.Intn(8) + rng.Intn(7)*rng.Intn(3))
		}
		delta.Transactions = append(delta.Transactions, core.Transaction{ID: next, Items: items})
		next += 1 + int64(rng.Intn(3))
	}
	return delta
}

func (c *client) appendTo(parent string, delta *core.Dataset) (dataset, int, []byte) {
	c.t.Helper()
	code, raw := c.do("POST", "/datasets/"+parent+"/append", encodeDataset(c.t, delta))
	var ds dataset
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, &ds); err != nil {
			c.t.Fatal(err)
		}
	}
	return ds, code, raw
}

func (c *client) mine(version string, minsupCount int64) jobStatus {
	c.t.Helper()
	var st jobStatus
	code := c.doJSON("POST", "/jobs", map[string]any{"dataset": version, "minsup_count": minsupCount}, &st)
	if code != http.StatusOK && code != http.StatusAccepted {
		c.t.Fatalf("submit: status %d", code)
	}
	return c.waitDone(st.ID)
}

func metricValue(t *testing.T, c *client, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, c), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, "setmd_"+name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric setmd_%s not found", name)
	return 0
}

// TestAppendAndDeltaMine is the tentpole flow: upload, mine, append,
// mine the derived version. The second mine must take the incremental
// path (visible in the job status and the metrics), answer bit-
// identically to an in-process cold mine of the combined dataset, and
// leave a border snapshot gauge behind.
func TestAppendAndDeltaMine(t *testing.T) {
	base := testDataset(91, 1200)
	delta := testDelta(92, base, 10) // promotes nothing: the pure path
	_, c := newTestServer(t, Config{})
	ds := c.upload(base)

	cold := c.mine(ds.Version, 20)
	if cold.Delta {
		t.Fatal("base mine claims to be incremental")
	}

	der, code, raw := c.appendTo(ds.Version, delta)
	if code != http.StatusOK {
		t.Fatalf("append: status %d: %s", code, raw)
	}
	if der.Parent != ds.Version || der.DeltaTxns != delta.NumTransactions() {
		t.Fatalf("derived version lost its lineage: %+v", der)
	}
	if der.Transactions != base.NumTransactions()+delta.NumTransactions() {
		t.Fatalf("derived version has %d transactions", der.Transactions)
	}

	st := c.mine(der.Version, 20)
	if st.State != stateDone {
		t.Fatalf("delta mine: %s (%s)", st.State, st.Error)
	}
	if !st.Delta {
		t.Fatal("derived mine did not take the incremental path")
	}
	got := c.result(st.ID)

	all := &core.Dataset{}
	all.Transactions = append(all.Transactions, base.Transactions...)
	all.Transactions = append(all.Transactions, delta.Transactions...)
	want, err := core.MineAuto(all, core.Options{MinSupportCount: 20})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "delta-vs-cold", want, got)

	if v := metricValue(t, c, "delta_mines"); v != 1 {
		t.Fatalf("delta_mines = %d, want 1", v)
	}
	if v := metricValue(t, c, "cache_patched"); v != 1 {
		t.Fatalf("cache_patched = %d, want 1", v)
	}
	if v := metricValue(t, c, "border_bytes"); v <= 0 {
		t.Fatalf("border_bytes = %d, want > 0", v)
	}

	// Repeat query on the derived version: pure cache hit, no new mine.
	st2 := c.mine(der.Version, 20)
	if !st2.Cached {
		t.Fatal("repeat derived mine missed the cache")
	}
	if v := metricValue(t, c, "delta_mines"); v != 1 {
		t.Fatalf("cache hit re-entered the delta path: delta_mines = %d", v)
	}
}

// TestAppendVersionCoherence: appending delta to base yields the same
// content-addressed version as uploading base+delta directly — the two
// roads converge on one cache identity.
func TestAppendVersionCoherence(t *testing.T) {
	base := testDataset(93, 300)
	delta := testDelta(94, base, 40)
	_, c := newTestServer(t, Config{})
	ds := c.upload(base)
	der, code, raw := c.appendTo(ds.Version, delta)
	if code != http.StatusOK {
		t.Fatalf("append: %d: %s", code, raw)
	}
	all := &core.Dataset{}
	all.Transactions = append(all.Transactions, base.Transactions...)
	all.Transactions = append(all.Transactions, delta.Transactions...)
	direct := c.upload(all)
	if direct.Version != der.Version {
		t.Fatalf("append version %s != direct upload version %s", der.Version, direct.Version)
	}
	// The registry kept the first (append) registration with its lineage.
	if direct.Parent != ds.Version {
		t.Fatalf("idempotent re-upload dropped the parent link: %+v", direct)
	}
}

// TestAppendValidation: the 4xx surface of the append endpoint.
func TestAppendValidation(t *testing.T) {
	base := testDataset(95, 100)
	_, c := newTestServer(t, Config{})
	ds := c.upload(base)

	if _, code, _ := c.appendTo("ds-nope", testDelta(1, base, 3)); code != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: %d, want 404", code)
	}
	overlap := &core.Dataset{Transactions: []core.Transaction{
		{ID: base.Transactions[0].ID, Items: []core.Item{1, 2}},
	}}
	if _, code, _ := c.appendTo(ds.Version, overlap); code != http.StatusBadRequest {
		t.Fatalf("overlapping tid: %d, want 400", code)
	}
	// Repeated tids in the delta body are pair-form continuation lines,
	// not an error: they fold into one basket at parse time.
	maxTid := base.Transactions[len(base.Transactions)-1].ID
	dup := &core.Dataset{Transactions: []core.Transaction{
		{ID: maxTid + 1, Items: []core.Item{1}},
		{ID: maxTid + 1, Items: []core.Item{2}},
	}}
	if der, code, raw := c.appendTo(ds.Version, dup); code != http.StatusOK || der.DeltaTxns != 1 {
		t.Fatalf("repeated delta tid should fold into one basket: %d %s", code, raw)
	}
	// ... also when the repeat is not contiguous: the reader splices the
	// split basket together, so the handler still sees each tid once.
	split := fmt.Sprintf("%d 1\n%d 2\n%d 3\n", maxTid+5, maxTid+6, maxTid+5)
	var der dataset
	if code, raw := c.do("POST", "/datasets/"+ds.Version+"/append", []byte(split)); code != http.StatusOK {
		t.Fatalf("non-contiguous repeated delta tid: %d %s", code, raw)
	} else if err := json.Unmarshal(raw, &der); err != nil || der.DeltaTxns != 2 || der.SalesRows != ds.SalesRows+3 {
		t.Fatalf("non-contiguous repeated delta tid folded into %+v (%v), want 2 transactions, 3 rows", der, err)
	}
	if _, code, _ := c.appendTo(ds.Version, &core.Dataset{}); code != http.StatusBadRequest {
		t.Fatalf("empty delta: %d, want 400", code)
	}

	// "Beyond the parent" is beyond its last trans_id, wherever that lies.
	neg := c.upload(&core.Dataset{Transactions: []core.Transaction{
		{ID: -9, Items: []core.Item{1, 2}}, {ID: -5, Items: []core.Item{2}},
	}})
	for tid, want := range map[int64]int{-5: http.StatusBadRequest, -4: http.StatusOK} {
		delta := &core.Dataset{Transactions: []core.Transaction{{ID: tid, Items: []core.Item{3}}}}
		if _, code, raw := c.appendTo(neg.Version, delta); code != want {
			t.Fatalf("append of tid %d to a parent ending at -5: %d %s, want %d", tid, code, raw, want)
		}
	}
}

// TestDeltaFallbackIsNotPatched: a refresh whose delta promotes a pattern
// past the parent's border re-mines base+delta inside MineDelta. The job
// still answers exactly, but cache_patched and the job's "delta" flag
// count only pure-path refreshes, so they read 0 and false.
func TestDeltaFallbackIsNotPatched(t *testing.T) {
	base := &core.Dataset{}
	for tid := int64(1); tid <= 7; tid++ {
		items := []core.Item{1, 2, 3}
		if tid > 4 {
			items = []core.Item{4, 5}
		}
		base.Transactions = append(base.Transactions, core.Transaction{ID: tid, Items: items})
	}
	delta := &core.Dataset{Transactions: []core.Transaction{
		{ID: 8, Items: []core.Item{4, 5, 6}},
		{ID: 9, Items: []core.Item{4, 5, 6}},
	}}
	_, c := newTestServer(t, Config{})
	ds := c.upload(base)
	if st := c.mine(ds.Version, 4); st.State != stateDone {
		t.Fatalf("base mine: %s (%s)", st.State, st.Error)
	}
	der, code, raw := c.appendTo(ds.Version, delta)
	if code != http.StatusOK {
		t.Fatalf("append: status %d: %s", code, raw)
	}
	st := c.mine(der.Version, 4)
	if st.State != stateDone {
		t.Fatalf("refresh: %s (%s)", st.State, st.Error)
	}
	want, err := core.MineAuto(&core.Dataset{Transactions: append(append([]core.Transaction{}, base.Transactions...), delta.Transactions...)},
		core.Options{MinSupportCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "fallback-vs-cold", want, c.result(st.ID))
	if v := metricValue(t, c, "delta_mines"); v != 1 {
		t.Fatalf("delta_mines = %d, want 1", v)
	}
	if v := metricValue(t, c, "cache_patched"); v != 0 {
		t.Fatalf("cache_patched = %d, want 0: the refresh re-mined cold", v)
	}
	if st.Delta {
		t.Fatal(`job status says "delta":true for a refresh that re-mined cold`)
	}
}

// assertRoute checks that a refresh's "delta" flag names the route it took:
// true exactly when pass 1 counted only the delta's SALES rows (the pure
// path), false when it counted base+delta (a cold re-mine inside MineDelta).
func assertRoute(t *testing.T, label string, st jobStatus, delta *core.Dataset) {
	t.Helper()
	if len(st.Iterations) == 0 {
		t.Fatalf("%s: no passes in the job status", label)
	}
	pure := st.Iterations[0].RPrimeRows == int64(delta.NumSalesRows())
	if st.Delta != pure {
		t.Fatalf("%s: delta=%v but pass 1 counted %d rows (|Δ SALES| = %d)",
			label, st.Delta, st.Iterations[0].RPrimeRows, delta.NumSalesRows())
	}
}

// TestDeltaMineColdWhenParentUncached: mining a derived version whose
// parent was never mined (no cached border) silently mines cold — same
// answer, no incremental claim.
func TestDeltaMineColdWhenParentUncached(t *testing.T) {
	base := testDataset(96, 400)
	delta := testDelta(97, base, 30)
	_, c := newTestServer(t, Config{})
	ds := c.upload(base)
	der, code, _ := c.appendTo(ds.Version, delta)
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	st := c.mine(der.Version, 10)
	if st.State != stateDone {
		t.Fatalf("mine: %s (%s)", st.State, st.Error)
	}
	if st.Delta {
		t.Fatal("claimed incremental path without a cached parent")
	}
	if v := metricValue(t, c, "delta_mines"); v != 0 {
		t.Fatalf("delta_mines = %d, want 0", v)
	}
	got := c.result(st.ID)
	all := &core.Dataset{}
	all.Transactions = append(all.Transactions, base.Transactions...)
	all.Transactions = append(all.Transactions, delta.Transactions...)
	want, err := core.MineAuto(all, core.Options{MinSupportCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "cold-derived", want, got)
}

// TestDeleteParentGuard: a dataset with a live derived child answers
// 409 on delete until the child goes first.
func TestDeleteParentGuard(t *testing.T) {
	base := testDataset(98, 200)
	_, c := newTestServer(t, Config{})
	ds := c.upload(base)
	der, code, _ := c.appendTo(ds.Version, testDelta(99, base, 10))
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if code, _ := c.do("DELETE", "/datasets/"+ds.Version, nil); code != http.StatusConflict {
		t.Fatalf("delete parent with live child: %d, want 409", code)
	}
	if code, _ := c.do("DELETE", "/datasets/"+der.Version, nil); code != http.StatusOK {
		t.Fatalf("delete child: %d, want 200", code)
	}
	if code, _ := c.do("DELETE", "/datasets/"+ds.Version, nil); code != http.StatusOK {
		t.Fatalf("delete parent after child: %d, want 200", code)
	}
}

// TestChainedAppendsOverHTTP: appends stack (the derived version is a
// parent in turn), every refresh down the chain runs MineDelta and is
// exact, and its "delta" flag names the route it took.
func TestChainedAppendsOverHTTP(t *testing.T) {
	acc := testDataset(100, 600)
	_, c := newTestServer(t, Config{})
	ds := c.upload(acc)
	if st := c.mine(ds.Version, 12); st.State != stateDone {
		t.Fatalf("base mine: %s", st.State)
	}
	for step := 0; step < 3; step++ {
		delta := testDelta(int64(101+step), acc, 25)
		der, code, raw := c.appendTo(ds.Version, delta)
		if code != http.StatusOK {
			t.Fatalf("step %d append: %d: %s", step, code, raw)
		}
		st := c.mine(der.Version, 12)
		if st.State != stateDone {
			t.Fatalf("step %d mine: %s (%s)", step, st.State, st.Error)
		}
		assertRoute(t, fmt.Sprintf("step %d", step), st, delta)
		acc.Transactions = append(acc.Transactions, delta.Transactions...)
		want, err := core.MineAuto(acc, core.Options{MinSupportCount: 12})
		if err != nil {
			t.Fatal(err)
		}
		assertSameCounts(t, fmt.Sprintf("chain-%d", step), want, c.result(st.ID))
		ds = der
	}
	if v := metricValue(t, c, "delta_mines"); v != 3 {
		t.Fatalf("delta_mines = %d, want 3", v)
	}
}

// TestDurableAppendReplay: derived versions survive restart — the
// parent link, the delta blob, the cached results, and the border
// sidecar — so a post-restart append still mines incrementally.
func TestDurableAppendReplay(t *testing.T) {
	dir := t.TempDir()
	base := testDataset(103, 800)
	delta := testDelta(104, base, 50)

	s1, c1, close1 := newDurableServer(t, dir, Config{})
	ds := c1.upload(base)
	if st := c1.mine(ds.Version, 15); st.State != stateDone {
		t.Fatalf("base mine: %s", st.State)
	}
	der, code, _ := c1.appendTo(ds.Version, delta)
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	st := c1.mine(der.Version, 15)
	if st.State != stateDone {
		t.Fatalf("first delta mine: state=%s", st.State)
	}
	assertRoute(t, "first delta mine", st, delta)
	wantRes := c1.result(st.ID)
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	s1.Drain(drainCtx)
	cancel()
	close1()

	_, c2, _ := newDurableServer(t, dir, Config{})
	var restored dataset
	if code := c2.doJSON("GET", "/datasets/"+der.Version, nil, &restored); code != http.StatusOK {
		t.Fatalf("derived version lost on restart: %d", code)
	}
	if restored.Parent != ds.Version || restored.Transactions != der.Transactions {
		t.Fatalf("derived version replayed wrong: %+v", restored)
	}
	// Cached result survived (served born-done).
	st2 := c2.mine(der.Version, 15)
	if !st2.Cached {
		t.Fatal("derived result not restored into the cache")
	}
	assertSameCounts(t, "restored", wantRes, c2.result(st2.ID))
	// The border sidecar survived too: a fresh append mines incrementally.
	if v := metricValue(t, c2, "border_bytes"); v <= 0 {
		t.Fatalf("border_bytes = %d after restart, want > 0", v)
	}
	delta2 := testDelta(105, &core.Dataset{Transactions: append(append([]core.Transaction{}, base.Transactions...), delta.Transactions...)}, 30)
	der2, code, _ := c2.appendTo(der.Version, delta2)
	if code != http.StatusOK {
		t.Fatalf("post-restart append: %d", code)
	}
	st3 := c2.mine(der2.Version, 15)
	if st3.State != stateDone {
		t.Fatalf("post-restart delta mine: %s (%s)", st3.State, st3.Error)
	}
	assertRoute(t, "post-restart delta mine", st3, delta2)
	if v := metricValue(t, c2, "delta_mines"); v != 1 {
		t.Fatalf("delta_mines = %d after restart, want 1: the refresh did not run MineDelta", v)
	}
	assertNoTmpDebris(t, dir)
}
