package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"setm/internal/core"
	"setm/internal/server"
)

// hitsPerCycle is how often a cycle repeats its cold job to be answered
// from the result cache.
const hitsPerCycle = 4

// setmdEnv is a running setmd behind real HTTP plus the bodies its
// clients cycle through.
type setmdEnv struct {
	bodies []body
	refs   [][2]uint64 // per body: digest of the base mine, of the base+delta mine
	minsup float64
	cfg    server.Config
	srv    *server.Server
	ts     *httptest.Server
	down   bool
}

// startSetmd opens the service: durable (WAL, fsync on, a checkpoint every
// iteration — the `setmd -datadir` defaults) when dataDir is set, the
// in-memory server otherwise.
func startSetmd(dataDir string, bodies []body, refs [][2]uint64, minsup float64) (*setmdEnv, error) {
	e := &setmdEnv{bodies: bodies, refs: refs, minsup: minsup, cfg: server.Config{DataDir: dataDir}}
	srv, err := server.Open(e.cfg)
	if err != nil {
		return nil, err
	}
	e.srv, e.ts = srv, httptest.NewServer(srv)
	return e, nil
}

// stop shuts the service down and waits for it: listener, jobs, WAL.
// Stopping twice is harmless.
func (e *setmdEnv) stop() error {
	if e.down {
		return nil
	}
	e.down = true
	e.ts.Close()
	e.srv.Drain(context.Background())
	return e.srv.Close()
}

// call makes one request, reads the whole answer, and fails on anything
// but 2xx. Under a tracer it is one span, child of the cycle's.
func (e *setmdEnv) call(tr *tracer, parent int, name, method, path string, body []byte) ([]byte, time.Duration, error) {
	sp := tr.begin(parent, 0, "server."+name)
	start := time.Now()
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	tr.end(sp, map[string]int64{"status": int64(resp.StatusCode), "bytes": int64(len(raw))})
	if err != nil {
		return nil, took, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, took, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, took, nil
}

// jobOut is one mining job's round trip, submit to result body read.
type jobOut struct {
	total, submit, wait, result time.Duration
	cached, delta               bool
	digest                      uint64
}

// job submits a mine of version, waits for it, and fetches the result.
func (e *setmdEnv) job(tr *tracer, parent int, version string) (jobOut, error) {
	var out jobOut
	var st struct {
		ID, State, Error string
		Cached, Delta    bool
	}
	start := time.Now()
	raw, took, err := e.call(tr, parent, "submit", "POST", "/jobs",
		[]byte(fmt.Sprintf(`{"dataset":%q,"minsup":%g}`, version, e.minsup)))
	if err != nil {
		return out, err
	}
	out.submit = took
	if err := json.Unmarshal(raw, &st); err != nil {
		return out, err
	}
	if st.State != "done" {
		raw, took, err = e.call(tr, parent, "wait", "GET", "/jobs/"+st.ID+"?wait=1", nil)
		if err != nil {
			return out, err
		}
		out.wait = took
		if err := json.Unmarshal(raw, &st); err != nil {
			return out, err
		}
		if st.State != "done" {
			return out, fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	raw, took, err = e.call(tr, parent, "result", "GET", "/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return out, err
	}
	out.result, out.total = took, time.Since(start)
	out.cached, out.delta = st.Cached, st.Delta
	var res struct{ Counts [][]core.ItemsetCount }
	if err := json.Unmarshal(raw, &res); err != nil {
		return out, err
	}
	out.digest = digestCounts(res.Counts)
	return out, nil
}

// cycleLog holds the samples of one client's cycles.
type cycleLog struct {
	upload, cold, hit, refresh            samples // the four user-visible round trips
	submit, wait, result, appendCall, del samples // single calls (submit/wait/result: of cold jobs)
	cycles, refreshJobs, patched          int
	rows                                  int64 // Σ |R_1| of the bodies cycled
}

func (l *cycleLog) merge(o *cycleLog) {
	l.upload = append(l.upload, o.upload...)
	l.cold = append(l.cold, o.cold...)
	l.hit = append(l.hit, o.hit...)
	l.refresh = append(l.refresh, o.refresh...)
	l.submit = append(l.submit, o.submit...)
	l.wait = append(l.wait, o.wait...)
	l.result = append(l.result, o.result...)
	l.appendCall = append(l.appendCall, o.appendCall...)
	l.del = append(l.del, o.del...)
	l.cycles += o.cycles
	l.refreshJobs += o.refreshJobs
	l.patched += o.patched
	l.rows += o.rows
}

// cycle is one op of setmd-mix: upload a body, mine it cold, repeat the
// job four times (cache hits), append the 1% delta and mine the derived
// version (the delta path), then delete both versions — which purges the
// cache, so the body's next use is cold again.
func (e *setmdEnv) cycle(tr *tracer, bi int, log *cycleLog) (err error) {
	b, ref := e.bodies[bi], e.refs[bi]
	root := tr.newOp("cycle")
	defer tr.end(root, nil)
	var version struct{ Version string }
	var base, derived string
	defer func() {
		if err != nil { // leave no version behind for the body's next cycle to trip over
			for _, v := range []string{derived, base} {
				if v != "" {
					e.call(nil, 0, "delete", "DELETE", "/datasets/"+v, nil)
				}
			}
		}
	}()

	raw, took, err := e.call(tr, root, "upload", "POST", "/datasets", b.base)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &version); err != nil {
		return err
	}
	base = version.Version
	log.upload.add(took)

	cold, err := e.job(tr, root, base)
	if err != nil {
		return err
	}
	if cold.cached || cold.digest != ref[0] {
		return fmt.Errorf("cold job: cached=%v digest %016x, reference %016x", cold.cached, cold.digest, ref[0])
	}
	log.cold.add(cold.total)
	log.submit.add(cold.submit)
	log.wait.add(cold.wait)
	log.result.add(cold.result)

	for i := 0; i < hitsPerCycle; i++ {
		hit, err := e.job(tr, root, base)
		if err != nil {
			return err
		}
		if !hit.cached || hit.digest != ref[0] {
			return fmt.Errorf("repeat job: cached=%v digest %016x, reference %016x", hit.cached, hit.digest, ref[0])
		}
		log.hit.add(hit.total)
	}

	raw, took, err = e.call(tr, root, "append", "POST", "/datasets/"+base+"/append", b.delta)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &version); err != nil {
		return err
	}
	derived = version.Version
	log.appendCall.add(took)
	ref1, err := e.job(tr, root, derived)
	if err != nil {
		return err
	}
	if ref1.digest != ref[1] {
		return fmt.Errorf("refresh job: digest %016x, reference %016x", ref1.digest, ref[1])
	}
	log.refresh.add(took + ref1.total)
	log.refreshJobs++
	if ref1.delta {
		log.patched++
	}

	for _, v := range []string{derived, base} {
		_, took, err := e.call(tr, root, "delete", "DELETE", "/datasets/"+v, nil)
		if err != nil {
			return err
		}
		log.del.add(took)
	}
	log.cycles++
	log.rows += b.rows
	return nil
}

// clients is how many closed-loop clients drive the service: two, or one
// when the pass runs on a single P.
func clients() int { return min(2, runtime.GOMAXPROCS(0)) }

// run drives the service with every client cycling through its own share
// of the bodies (no two clients ever hold the same content-addressed
// version) until the budget is spent. With a tracer, a client runs each
// body untraced and then traced and logs the two apart, so the tracing
// overhead is a paired difference. It returns the untraced log, the traced
// log, and the wall.
func (e *setmdEnv) run(tr *tracer, b budget, tl *tally) (plain, traced *cycleLog, wall time.Duration) {
	n := clients()
	plains, traceds := make([]cycleLog, n), make([]cycleLog, n)
	per := len(e.bodies) / n
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			b.run(func() {
				switch {
				case tr == nil:
					tl.note(e.cycle(nil, c*per+i%per, &plains[c]))
				case i%2 == 0:
					tl.note(e.cycle(nil, c*per+(i/2)%per, &plains[c]))
				default:
					tl.note(e.cycle(tr, c*per+(i/2)%per, &traceds[c]))
				}
				i++
			})
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	plain, traced = new(cycleLog), new(cycleLog)
	for c := 0; c < n; c++ {
		plain.merge(&plains[c])
		traced.merge(&traceds[c])
	}
	return plain, traced, wall
}

// scrape reads GET /metrics into a map (names without the setmd_ prefix).
func (e *setmdEnv) scrape() (map[string]float64, error) {
	raw, _, err := e.call(nil, 0, "metrics", "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			m[strings.TrimPrefix(name, "setmd_")] = v
		}
	}
	return m, nil
}

func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// setmdProbe is the traced pass over the service. It consumes the env:
// the last measurement reopens the data directory after a clean stop.
func setmdProbe(e *setmdEnv, tr *tracer, b budget, rep *report, tl *tally) probeTimes {
	heap0 := liveHeap()
	m0, err := e.scrape()
	if err != nil {
		tl.note(err)
		return probeTimes{}
	}
	plain, traced, _ := e.run(tr, b, tl)
	m1, err := e.scrape()
	if err != nil {
		tl.note(err)
		return probeTimes{}
	}
	rep.add("server.heap_growth_mb", "MB", (liveHeap()-heap0)/1e6)
	times := probeTimes{median(plain.cold), median(traced.cold)}
	all := new(cycleLog)
	all.merge(plain)
	all.merge(traced)

	rep.addMedian("server.upload_p50_s", "s", all.upload, 1)
	rep.addMedian("server.cold_p50_s", "s", all.cold, 1)
	rep.addMedian("server.hit_p50_s", "s", all.hit, 1)
	rep.addMedian("server.refresh_p50_s", "s", all.refresh, 1)
	rep.addMedian("server.submit_p50_s", "s", traced.submit, 1)
	rep.addMedian("server.wait_p50_s", "s", traced.wait, 1)
	rep.addMedian("server.result_p50_s", "s", traced.result, 1)
	rep.addMedian("server.append_p50_s", "s", traced.appendCall, 1)
	rep.addMedian("server.delete_p50_s", "s", traced.del, 1)
	rep.addTail("server.cold_tail_s", all.cold)
	rep.addTail("server.hit_tail_s", all.hit)
	rep.addTail("server.refresh_tail_s", all.refresh)
	rep.addTail("server.upload_tail_s", all.upload)

	// What the service adds to the mine it wraps, and what durability adds
	// to the service: the same cold job in process, and on server.New.
	b0 := e.bodies[0]
	inproc := plainMineP50(b0.baseD, core.Options{MinSupportFrac: e.minsup, RetainBorder: true, MemoryBudget: 64 << 20}, 2*b.minOps, tl)
	rep.add("server.overhead_s", "s", median(all.cold)-inproc)
	mem, err := startSetmd("", e.bodies, e.refs, e.minsup)
	if err != nil {
		tl.note(err)
		return times
	}
	memLog, _, _ := mem.run(nil, budget{b.seconds / 4, b.minOps}, tl)
	tl.note(mem.stop())
	rep.add("server.durable_tax_s", "s", median(all.cold)-median(memLog.cold))

	d := func(name string) float64 { return m1[name] - m0[name] }
	rep.add("server.cache_hit_share", "share", ratio(d("cache_hits"), d("cache_hits")+d("cache_misses")))
	rep.add("server.delta_patched_share", "share", ratio(float64(all.patched), float64(all.refreshJobs)))
	rep.add("server.jobs_failed", "count", m1["jobs_failed"])
	rep.add("server.jobs_rejected", "count", m1["jobs_rejected"])
	rep.add("server.ledger_jobs_end", "count", m1["jobs_total"])
	rep.add("wal.bytes_per_cycle", "B", ratio(d("wal_size_bytes"), float64(all.cycles)))
	rep.add("wal.size_mb_end", "MB", m1["wal_size_bytes"]/1e6)
	if m1["jobs_failed"] != 0 {
		tl.note(fmt.Errorf("setmd reports %v failed jobs", m1["jobs_failed"]))
	}

	// A clean stop, then what the next boot pays to replay the journal.
	if err := e.stop(); err != nil {
		tl.note(err)
		return times
	}
	start := time.Now()
	again, err := server.Open(e.cfg)
	rep.add("wal.reopen_ms", "ms", time.Since(start).Seconds()*1e3)
	if err != nil {
		tl.note(err)
		return times
	}
	tl.note(again.Close())
	return times
}
