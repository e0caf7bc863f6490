package server

// What a long-running setmd keeps of data sets that are gone: nothing but
// the ledger line. Deleting a data set discards the results its done jobs
// hold — with one answer on both sides of a restart — and upload / mine /
// append / refresh / delete cycles leave the live heap flat.

import (
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestDeleteDatasetDiscardsJobResults: a cold job, a cache-hit job and a
// delta job serve their results until their data sets are deleted; from
// then on GET /jobs/{id} reads "failed: result discarded" and /result 410
// — never 200 with the dead result, never 200 null — and a durable
// server answers byte for byte the same after a restart.
func TestDeleteDatasetDiscardsJobResults(t *testing.T) {
	base := testDataset(41, 600)
	delta := testDelta(42, base, 40)
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var s *Server
			var c *client
			restart := func() {}
			if durable {
				dir := t.TempDir()
				var stop func()
				s, c, stop = newDurableServer(t, dir, Config{})
				restart = func() { stop(); s, c, _ = newDurableServer(t, dir, Config{}) }
			} else {
				s, c = newTestServer(t, Config{})
			}
			ds := c.upload(base)
			jobs := []jobStatus{c.mine(ds.Version, 12), c.mine(ds.Version, 12)}
			der, code, raw := c.appendTo(ds.Version, delta)
			if code != http.StatusOK {
				t.Fatalf("append: status %d: %s", code, raw)
			}
			jobs = append(jobs, c.mine(der.Version, 12))
			if jobs[0].Cached || !jobs[1].Cached || jobs[2].Cached || metricValue(t, c, "delta_mines") != 1 {
				t.Fatalf("want a cold, a cached and a delta job, got %+v", jobs)
			}
			for _, st := range jobs {
				if res := c.result(st.ID); st.State != stateDone || len(res.Counts) == 0 {
					t.Fatalf("job %s before the delete: %+v, %d count relations", st.ID, st, len(res.Counts))
				}
			}
			for _, v := range []string{der.Version, ds.Version} {
				if code, raw := c.do("DELETE", "/datasets/"+v, nil); code != http.StatusOK {
					t.Fatalf("delete %s: status %d: %s", v, code, raw)
				}
			}

			type answer struct {
				status jobStatus
				code   int
				body   string
			}
			read := func(id string) answer {
				var a answer
				if code := c.doJSON("GET", "/jobs/"+id, nil, &a.status); code != http.StatusOK {
					t.Fatalf("status of %s: %d", id, code)
				}
				code, raw := c.do("GET", "/jobs/"+id+"/result", nil)
				a.code, a.body = code, string(raw)
				return a
			}
			var live []answer
			for i, st := range jobs {
				a := read(st.ID)
				want := jobStatus{ID: st.ID, Dataset: st.Dataset, State: stateFailed,
					Cached: st.Cached, EstBytes: st.EstBytes, Error: discardedResult}
				if !reflect.DeepEqual(a.status, want) {
					t.Errorf("job %d after the delete: %+v, want %+v", i, a.status, want)
				}
				if a.code != http.StatusGone {
					t.Errorf("job %d result after the delete: status %d (%.80s), want 410", i, a.code, a.body)
				}
				s.mu.Lock()
				j := s.jobs[st.ID]
				s.mu.Unlock()
				if j.result != nil || j.iters != nil {
					t.Errorf("job %d still holds its result", i)
				}
				live = append(live, a)
			}
			if v := metricValue(t, c, "jobs_failed"); v != 0 {
				t.Errorf("a discarded result counted as %d failed jobs", v)
			}
			if !durable {
				return
			}
			restart()
			for i, st := range jobs {
				if a := read(st.ID); !reflect.DeepEqual(a, live[i]) {
					t.Errorf("job %d reads differently after the restart:\n live   %+v\n reopen %+v", i, live[i], a)
				}
			}
		})
	}
}

// TestCyclesHoldNoDeadData runs the service round trip — upload, cold
// job, four cache hits, append, delta refresh, delete both versions —
// sixty times over a durable server and checks that what is deleted is
// gone: the live heap at cycle 60 is where it was at cycle 10 (the ledger
// lines and their WAL records are all that accrue), no job of a deleted
// data set holds a result, no frame is pinned, no job failed.
func TestCyclesHoldNoDeadData(t *testing.T) {
	const (
		cycles, warm = 60, 10
		slack        = 2 << 20
	)
	base := testDataset(43, 2000)
	delta := testDelta(44, base, 20)
	s, c, _ := newDurableServer(t, t.TempDir(), Config{})
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var heapWarm uint64
	for cycle := 1; cycle <= cycles; cycle++ {
		ds := c.upload(base)
		if st := c.mine(ds.Version, 20); st.State != stateDone || st.Cached {
			t.Fatalf("cycle %d cold job: %+v", cycle, st)
		}
		for i := 0; i < 4; i++ {
			st := c.mine(ds.Version, 20)
			if !st.Cached || len(c.result(st.ID).Counts) == 0 {
				t.Fatalf("cycle %d repeat job: %+v", cycle, st)
			}
		}
		der, code, raw := c.appendTo(ds.Version, delta)
		if code != http.StatusOK {
			t.Fatalf("cycle %d append: status %d: %s", cycle, code, raw)
		}
		if st := c.mine(der.Version, 20); st.State != stateDone || st.Cached || metricValue(t, c, "delta_mines") != int64(cycle) {
			t.Fatalf("cycle %d refresh job: %+v", cycle, st)
		}
		for _, v := range []string{der.Version, ds.Version} {
			if code, raw := c.do("DELETE", "/datasets/"+v, nil); code != http.StatusOK {
				t.Fatalf("cycle %d delete %s: status %d: %s", cycle, v, code, raw)
			}
		}
		if cycle == warm {
			heapWarm = liveHeap()
		}
	}
	heap := liveHeap()
	t.Logf("live heap: %.1f MB at cycle %d, %.1f MB at cycle %d", float64(heapWarm)/1e6, warm, float64(heap)/1e6, cycles)
	if heap > heapWarm+slack {
		t.Errorf("live heap grew from %.1f MB at cycle %d to %.1f MB at cycle %d (allowed: %d MB)",
			float64(heapWarm)/1e6, warm, float64(heap)/1e6, cycles, slack>>20)
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		if j.result != nil {
			t.Errorf("job %s of deleted data set %s still holds its result", id, j.dataset)
		}
	}
	if n := len(s.jobs); n != 6*cycles {
		t.Errorf("ledger has %d jobs, want %d", n, 6*cycles)
	}
	s.mu.Unlock()
	for _, name := range []string{"pool_pinned_frames", "jobs_failed", "datasets", "cache_entries"} {
		if v := metricValue(t, c, name); v != 0 {
			t.Errorf("setmd_%s = %d after every data set was deleted, want 0", name, v)
		}
	}
}

// TestSubmitRacingDeleteHoldsNoDeadResult: cache-hit submits race the
// DELETE of their data set. A submit registers its job under the lock
// that re-checks the data set, so whichever side wins, no job enters the
// ledger done with the result of a data set that is already gone.
func TestSubmitRacingDeleteHoldsNoDeadResult(t *testing.T) {
	s, c, _ := newDurableServer(t, t.TempDir(), Config{})
	d := testDataset(45, 200)
	submit := map[string]any{"minsup_count": 8}
	for round := 0; round < 25; round++ {
		ds := c.upload(d)
		submit["dataset"] = ds.Version
		if st := c.mine(ds.Version, 8); st.State != stateDone {
			t.Fatalf("round %d: cold job %+v", round, st)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for code := 0; code != http.StatusNotFound; {
					code, _ = c.doJSONCode("POST", "/jobs", submit)
				}
			}()
		}
		runtime.Gosched()
		for code := 0; code != http.StatusOK; { // 409 while a cache-missing submit runs
			code, _ = c.do("DELETE", "/datasets/"+ds.Version, nil)
		}
		wg.Wait()
	}
	// The window is a few instructions wide, so the loop above is a stress
	// for -race more than a proof; the mechanism itself, deterministically:
	late := &job{id: "job-late", dataset: submit["dataset"].(string), state: stateDone}
	if s.registerSubmitted(late) {
		t.Errorf("a job of deleted data set %s was registered", late.dataset)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.result != nil || j.state == stateDone {
			t.Errorf("job %s (%s) holds a result of deleted data set %s", id, j.state, j.dataset)
		}
	}
}
