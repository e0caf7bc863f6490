package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
)

// metrics holds the service counters. Gauges (admission usage, queue
// depth, pinned frames) are computed at scrape time from live state.
type metrics struct {
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cachePatched  atomic.Int64 // results produced by patching a cached parent (MineDelta's pure path)
	deltaMines    atomic.Int64 // jobs that entered the incremental path
	jobsAdmitted  atomic.Int64
	jobsQueued    atomic.Int64
	jobsRejected  atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64

	// Durability counters (non-zero only on a durable server).
	jobsTimedOut    atomic.Int64 // failed specifically on a timeout_ms deadline
	jobsResumed     atomic.Int64 // interrupted jobs re-enqueued at boot
	walAppendErrors atomic.Int64 // journal appends that failed (durability degraded)
	persistErrors   atomic.Int64 // result envelope / checkpoint writes that failed

	// Checkpoint pacing: what durable jobs wrote, and how many boot-time
	// resumes continued from a verified checkpoint (jobsResumed counts the
	// re-mines from scratch too).
	checkpointsWritten atomic.Int64
	checkpointBytes    atomic.Int64
	checkpointResumes  atomic.Int64
}

// handleMetrics renders the counters in the flat "name value" text
// format scrapers expect.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	used, queued := s.adm.snapshot()

	// The pinned-frame gauge sums over running jobs' pools: any value
	// observed after all jobs finish means a leak.
	pinned := 0
	running := 0
	s.mu.Lock()
	nDatasets := len(s.datasets)
	nJobs := len(s.jobs)
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.pool != nil {
			pinned += j.pool.PinnedFrames()
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	put := func(name string, v int64) { fmt.Fprintf(w, "setmd_%s %d\n", name, v) }
	put("cache_hits", s.met.cacheHits.Load())
	put("cache_misses", s.met.cacheMisses.Load())
	put("cache_patched", s.met.cachePatched.Load())
	put("cache_entries", int64(s.cache.len()))
	put("delta_mines", s.met.deltaMines.Load())
	put("border_bytes", s.cache.borderBytes())
	put("jobs_admitted", s.met.jobsAdmitted.Load())
	put("jobs_queued", s.met.jobsQueued.Load())
	put("jobs_rejected", s.met.jobsRejected.Load())
	put("jobs_done", s.met.jobsDone.Load())
	put("jobs_failed", s.met.jobsFailed.Load())
	put("jobs_cancelled", s.met.jobsCancelled.Load())
	put("jobs_timed_out", s.met.jobsTimedOut.Load())
	put("jobs_resumed", s.met.jobsResumed.Load())
	put("checkpoints_written", s.met.checkpointsWritten.Load())
	put("checkpoint_bytes", s.met.checkpointBytes.Load())
	put("checkpoint_resumes", s.met.checkpointResumes.Load())
	put("wal_append_errors", s.met.walAppendErrors.Load())
	put("persist_errors", s.met.persistErrors.Load())
	if s.wal != nil {
		put("wal_size_bytes", s.wal.Size())
	}
	put("jobs_running", int64(running))
	put("jobs_total", int64(nJobs))
	put("datasets", int64(nDatasets))
	put("admission_used_bytes", used)
	put("admission_budget_bytes", s.cfg.GlobalMemBudget)
	put("admission_waiting", int64(queued))
	put("pool_pinned_frames", int64(pinned))
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight jobs finish.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
