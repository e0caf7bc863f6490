// Package server implements setmd, the long-running mining service:
// SETM run where the paper argued it belongs — inside the
// data-management system, as a shared service — instead of a one-off
// in-process batch job. The server registers versioned datasets (the
// SALES text codec, content-addressed), executes mining jobs through the
// adaptive executor (setm.Mine semantics, cancellable), fronts them
// with a result cache keyed on (dataset version, canonical options) so
// repeat queries are free, and admits work through a cost-model gate
// that bounds the *sum* of running jobs' estimated memory footprints
// under one global budget.
//
// Endpoints:
//
//	POST   /datasets          upload SALES text; returns {version, ...}
//	POST   /datasets/{id}/append
//	                          append SALES text to an existing version;
//	                          returns the derived version with a parent
//	                          link — mining it reuses the parent's
//	                          cached result incrementally
//	GET    /datasets          list registered datasets
//	GET    /datasets/{id}     one dataset's metadata
//	DELETE /datasets/{id}     unregister (409 while a queued or running
//	                          job mines it, or it is a version's parent)
//	POST   /jobs              submit a mining job (JSON body)
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status + per-iteration plan rows
//	GET    /jobs/{id}/result  the mining result once done
//	DELETE /jobs/{id}         cancel a queued or running job
//	GET    /metrics           counters and gauges, text format
//	GET    /healthz           liveness (503 once draining)
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"setm"
	"setm/internal/core"
	"setm/internal/costmodel"
	"setm/internal/storage"
	"setm/internal/wal"
)

// Config tunes the service. The zero value picks sane defaults.
type Config struct {
	// GlobalMemBudget bounds the sum of admitted jobs' estimated memory
	// footprints, in bytes (default 1 GiB). A job whose lone estimate
	// exceeds it is rejected outright; jobs that would push the running
	// sum over it queue.
	GlobalMemBudget int64
	// JobMemBudget is the Options.MemoryBudget applied to jobs that do
	// not request one (default 64 MiB). It bounds each job's working set
	// — the executor spills past it — and thereby caps the job's
	// admission estimate.
	JobMemBudget int64
	// MaxQueue is how many jobs may wait for admission before further
	// submissions are rejected with 429 (default 16).
	MaxQueue int
	// CacheEntries caps the result cache (default 128 results).
	CacheEntries int
	// MaxUploadBytes caps one dataset upload (default 1 GiB).
	MaxUploadBytes int64
	// DataDir, when non-empty, makes the server durable: dataset
	// registrations and job lifecycle transitions are journaled to a WAL
	// here, completed results spilled to disk, and mining jobs
	// checkpointed at iteration boundaries so a crashed server resumes
	// them on restart. Durable servers must be built with Open (New
	// ignores recovery and stays in-memory).
	DataDir string
	// CheckpointInterval is core.CheckpointConfig.Interval for durable
	// jobs. Zero (the default) paces checkpoints by the work they
	// protect: a pass is checkpointed once the mining time at risk is ten
	// times the predicted cost of the write, so checkpoint I/O stays
	// under ~10% of mining time and a mine of milliseconds writes none.
	// N >= 1 checkpoints every N-th iteration unconditionally.
	CheckpointInterval int
	// NoSync skips fsyncs on the WAL, blobs, results, and checkpoints.
	// Only for tests: a crash may lose acknowledged state.
	NoSync bool
}

func (c Config) withDefaults() Config {
	if c.GlobalMemBudget <= 0 {
		c.GlobalMemBudget = 1 << 30
	}
	if c.JobMemBudget <= 0 {
		c.JobMemBudget = 64 << 20
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	return c
}

// Server is the setmd service. It implements http.Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	adm   *admission
	met   metrics
	wal   *wal.Log // non-nil only on a durable server (Open + DataDir)

	baseCtx    context.Context // parent of every job; Drain cancels it
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // running job goroutines

	mu       sync.Mutex
	datasets map[string]*dataset
	jobs     map[string]*job
	jobOrder []string
	nextJob  int
	draining bool
}

// dataset is one registered, content-addressed dataset version. A
// derived version (created by POST /datasets/{id}/append) additionally
// records its parent and the appended transactions — the link the
// incremental mining path follows.
type dataset struct {
	Version      string  `json:"version"`
	Transactions int     `json:"transactions"`
	SalesRows    int64   `json:"sales_rows"`
	AvgBasket    float64 `json:"avg_basket"`
	Parent       string  `json:"parent,omitempty"`
	DeltaTxns    int     `json:"delta_transactions,omitempty"`

	d      *core.Dataset // full (combined) dataset
	deltaD *core.Dataset // the appended transactions only; nil on base versions

	// hc caches the marshaled SHA-256 state of the canonical SALES
	// serialization the version id was computed over (a pointer so the
	// metadata struct stays freely copyable). Appending is then
	// O(delta): the normalized relation sorts by (trans_id, item) and
	// delta tids sit strictly beyond the parent's, so the child's
	// canonical form is parent-norm ++ delta-norm — the child hasher
	// resumes from the parent's state and absorbs only the delta
	// bytes, yet finalizes to the exact version id a direct upload of
	// the combined data would get. Boot-replayed datasets fill the
	// cache lazily on their first append.
	hc *hashCache
}

type hashCache struct {
	once  sync.Once
	state []byte
}

// normHasher returns a SHA-256 hasher positioned after the dataset's
// canonical SALES serialization, rebuilding the state (one full
// serialization pass) if this version was boot-replayed.
func (ds *dataset) normHasher() (hash.Hash, error) {
	var err error
	ds.hc.once.Do(func() {
		var buf bytes.Buffer
		if err = setm.WriteDataset(&buf, ds.d); err != nil {
			return
		}
		h := sha256.New()
		h.Write(buf.Bytes())
		ds.hc.state, err = h.(encoding.BinaryMarshaler).MarshalBinary()
	})
	if err == nil && ds.hc.state == nil {
		err = fmt.Errorf("dataset %s has no canonical form", ds.Version)
	}
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(ds.hc.state); err != nil {
		return nil, err
	}
	return h, nil
}

// setHashState seeds the hash-state cache at registration time, when
// the canonical serialization was just hashed for content addressing.
func (ds *dataset) setHashState(h hash.Hash) {
	ds.hc.once.Do(func() {
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err == nil {
			ds.hc.state = state
		}
	})
}

// Job states.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// deltaPlan is the incremental-mining opportunity captured at submit
// time: the parent's datasets and border snapshot are pinned here so a
// cache eviction between submit and run cannot pull the rug out. runJob
// holds it, not the job: a terminal job pins no data set and no border.
type deltaPlan struct {
	base  *core.Dataset
	delta *core.Dataset
	snap  *core.BorderSnapshot
}

// job is one mining job's lifecycle record, kept for the life of the server:
// it holds its data set's version id only, and the result until discard.
type job struct {
	id      string
	dataset string
	est     int64
	created time.Time
	delta   bool // mined incrementally: the refresh took MineDelta's pure path

	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu     sync.Mutex
	state  string
	cached bool
	iters  []core.IterationStat
	result *core.Result
	errMsg string
	pool   *storage.Pool // non-nil only while running
}

const discardedResult = "result discarded: dataset deleted" // errMsg after a DELETE

// discard turns a done job into the failed one that has lost its result,
// the same whether its data set was deleted on this server or replay found
// it gone. No mine failed, so no counter moves. The caller holds j.mu.
func (j *job) discard(reason string) {
	j.state, j.errMsg = stateFailed, reason
	j.result, j.iters, j.delta = nil, nil, false
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries),
		adm:        newAdmission(cfg.GlobalMemBudget, cfg.MaxQueue),
		baseCtx:    ctx,
		baseCancel: cancel,
		datasets:   make(map[string]*dataset),
		jobs:       make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets", s.handleUploadDataset)
	mux.HandleFunc("POST /datasets/{id}/append", s.handleAppendDataset)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("GET /datasets/{id}", s.handleGetDataset)
	mux.HandleFunc("DELETE /datasets/{id}", s.handleDeleteDataset)
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs", s.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops accepting jobs and waits for running ones until ctx
// expires, at which point the stragglers are cancelled and awaited —
// cancellation is prompt and leak-free, so Drain returns shortly after.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-ctx.Done():
		s.baseCancel()
		<-finished
	}
	s.baseCancel()
}

// --- dataset endpoints ----------------------------------------------------

func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	d, err := setm.ReadDataset(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse dataset: %v", err)
		return
	}
	// Content-address the *normalized* SALES relation, so equivalent
	// uploads (reordered lines, basket vs pair form) share one version.
	var norm bytes.Buffer
	if err := setm.WriteDataset(&norm, d); err != nil {
		httpError(w, http.StatusInternalServerError, "encode dataset: %v", err)
		return
	}
	h := sha256.New()
	h.Write(norm.Bytes())
	sum := h.Sum(nil)
	ds := &dataset{
		Version:      "ds-" + hex.EncodeToString(sum[:8]),
		Transactions: d.NumTransactions(),
		SalesRows:    int64(bytes.Count(norm.Bytes(), []byte{'\n'})),
		d:            d,
		hc:           &hashCache{},
	}
	ds.setHashState(h)
	if ds.Transactions > 0 {
		ds.AvgBasket = float64(ds.SalesRows) / float64(ds.Transactions)
	}
	s.mu.Lock()
	prev, exists := s.datasets[ds.Version]
	s.mu.Unlock()
	if exists {
		writeJSON(w, http.StatusOK, prev) // idempotent re-upload
		return
	}
	// Durability before visibility: the blob lands atomically and the
	// registration is journaled before the version is registered, so a
	// replayed dataset record always finds its bytes. A concurrent
	// duplicate upload repeats both harmlessly (same content, and
	// replay treats duplicate records as idempotent).
	if err := s.persistDataset(ds, norm.Bytes()); err != nil {
		httpError(w, http.StatusInternalServerError, "persist dataset: %v", err)
		return
	}
	s.mu.Lock()
	if prev, ok := s.datasets[ds.Version]; ok {
		ds = prev
	} else {
		s.datasets[ds.Version] = ds
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ds)
}

// handleAppendDataset creates a derived dataset version: the parent's
// transactions plus the uploaded delta. The derived version is content-
// addressed over the normalized COMBINED relation, so it is identical
// to what a direct upload of the same data would produce — appends and
// uploads converge on one version id and share cache entries. Delta
// transaction ids must be strictly greater than every parent id (a
// disjoint append, the precondition of incremental mining); violations
// are a 400. Repeated tids within the delta body are not an error —
// the SALES pair form folds them into one basket at parse time.
func (s *Server) handleAppendDataset(w http.ResponseWriter, r *http.Request) {
	parentID := r.PathValue("id")
	s.mu.Lock()
	parent, ok := s.datasets[parentID]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", parentID)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	deltaD, err := setm.ReadDataset(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse delta: %v", err)
		return
	}
	if len(deltaD.Transactions) == 0 {
		httpError(w, http.StatusBadRequest, "empty delta")
		return
	}
	// Transactions ascend by trans_id: ReadDataset sorts, appends add beyond.
	maxTid := parent.d.Transactions[len(parent.d.Transactions)-1].ID
	for _, tx := range deltaD.Transactions {
		// ReadDataset already folded repeated tids into one basket, so
		// disjointness from the parent is the only precondition left.
		if tx.ID <= maxTid {
			httpError(w, http.StatusBadRequest,
				"delta trans_id %d not beyond parent max %d", tx.ID, maxTid)
			return
		}
	}

	combined := &core.Dataset{}
	combined.Transactions = append(combined.Transactions, parent.d.Transactions...)
	combined.Transactions = append(combined.Transactions, deltaD.Transactions...)
	// The canonical combined form is the parent's canonical form plus
	// the delta's: the normalized relation sorts by (trans_id, item)
	// and every delta tid sits strictly beyond the parent's, so the
	// concatenation is already sorted. The version hash resumes from
	// the parent's checkpointed SHA-256 state and absorbs only the
	// delta bytes — O(delta) work, yet the exact version id a direct
	// upload of the combined data would produce.
	h, err := parent.normHasher()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode parent: %v", err)
		return
	}
	var deltaNorm bytes.Buffer
	if err := setm.WriteDataset(&deltaNorm, deltaD); err != nil {
		httpError(w, http.StatusInternalServerError, "encode delta: %v", err)
		return
	}
	h.Write(deltaNorm.Bytes())
	sum := h.Sum(nil)
	ds := &dataset{
		Version:      "ds-" + hex.EncodeToString(sum[:8]),
		Transactions: combined.NumTransactions(),
		SalesRows:    parent.SalesRows + int64(bytes.Count(deltaNorm.Bytes(), []byte{'\n'})),
		Parent:       parent.Version,
		DeltaTxns:    deltaD.NumTransactions(),
		d:            combined,
		deltaD:       deltaD,
		hc:           &hashCache{},
	}
	ds.setHashState(h)
	if ds.Transactions > 0 {
		ds.AvgBasket = float64(ds.SalesRows) / float64(ds.Transactions)
	}
	s.mu.Lock()
	prev, exists := s.datasets[ds.Version]
	s.mu.Unlock()
	if exists {
		writeJSON(w, http.StatusOK, prev) // idempotent re-append
		return
	}
	// Durability before visibility, like uploads: the delta blob lands
	// atomically, then the append record (with the parent link) is
	// journaled. Replay re-derives the combined dataset from the parent
	// plus the delta blob — which is why deleting a parent with live
	// children is refused.
	if err := s.persistAppend(ds, deltaNorm.Bytes()); err != nil {
		httpError(w, http.StatusInternalServerError, "persist append: %v", err)
		return
	}
	s.mu.Lock()
	if prev, ok := s.datasets[ds.Version]; ok {
		ds = prev
	} else {
		s.datasets[ds.Version] = ds
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ds)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]*dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		list = append(list, ds)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].Version < list[j].Version })
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ds, ok := s.datasets[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, ds)
}

// handleDeleteDataset unregisters a dataset. While any queued or
// running job references it the delete answers 409 — results being
// mined must not lose their input mid-run. Terminal jobs keep their
// ledger entries; the dataset, its blob, its cached results, its spilled
// result envelopes and the results its done jobs hold go (see discard).
func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ds, ok := s.datasets[id]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown dataset %q", id)
		return
	}
	for _, jid := range s.jobOrder {
		j := s.jobs[jid]
		j.mu.Lock()
		busy := j.dataset == id && (j.state == stateQueued || j.state == stateRunning)
		j.mu.Unlock()
		if busy {
			s.mu.Unlock()
			httpError(w, http.StatusConflict, "dataset %s in use by job %s", id, jid)
			return
		}
	}
	// A parent of a live derived version must stay: the child's durable
	// form is (parent link + delta blob), so replay needs the parent to
	// re-derive it — and the incremental path needs its transactions.
	for _, child := range s.datasets {
		if child.Parent == id {
			s.mu.Unlock()
			httpError(w, http.StatusConflict, "dataset %s is the parent of %s; delete the child first", id, child.Version)
			return
		}
	}
	delete(s.datasets, id)
	for _, jid := range s.jobOrder {
		j := s.jobs[jid]
		j.mu.Lock()
		if j.dataset == id && j.state == stateDone {
			j.discard(discardedResult)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	s.cache.purgeVersion(id)
	if s.durable() {
		_ = s.walAppend(walRecord{Type: recDatasetDel, Version: id})
		os.Remove(s.datasetBlobPath(id))
		os.Remove(s.deltaBlobPath(id))
		for _, pat := range []string{id + "-*.json", id + "-*.border"} {
			if matches, err := filepath.Glob(filepath.Join(s.resultsDir(), pat)); err == nil {
				for _, m := range matches {
					os.Remove(m)
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": ds.Version})
}

// --- job endpoints --------------------------------------------------------

// jobRequest is the POST /jobs body, mapping onto setm.Options.
type jobRequest struct {
	Dataset      string  `json:"dataset"`
	MinSupFrac   float64 `json:"minsup"`       // fraction of transactions
	MinSupCount  int64   `json:"minsup_count"` // absolute; wins over minsup
	MaxPatternLn int     `json:"maxlen"`
	MemBudget    int64   `json:"membudget"`  // bytes; 0 = server default
	MaxWorkers   int     `json:"maxworkers"` // 0 = all CPUs
	TimeoutMs    int64   `json:"timeout_ms"` // wall-clock cap; 0 = none
}

// jobStatus is the wire form of a job.
type jobStatus struct {
	ID         string       `json:"id"`
	Dataset    string       `json:"dataset"`
	State      string       `json:"state"`
	Cached     bool         `json:"cached"`
	Delta      bool         `json:"delta,omitempty"`
	EstBytes   int64        `json:"est_bytes"`
	Error      string       `json:"error,omitempty"`
	Iterations []iterStatus `json:"iterations,omitempty"`
}

// iterStatus is one IterationStat row with the plan rendered.
type iterStatus struct {
	K           int    `json:"k"`
	RPrimeRows  int64  `json:"r_prime_rows"`
	RRows       int64  `json:"r_rows"`
	Patterns    int    `json:"patterns"`
	RunsSpilled int64  `json:"runs_spilled"`
	PageIO      int64  `json:"page_io"`
	Plan        string `json:"plan"`
	DurationUs  int64  `json:"duration_us"`
	// The pass's checkpoint, when the cadence wrote one.
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	CheckpointUs    int64 `json:"checkpoint_us,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.id, Dataset: j.dataset, State: j.state,
		Cached: j.cached, Delta: j.delta, EstBytes: j.est, Error: j.errMsg,
	}
	for _, it := range j.iters {
		st.Iterations = append(st.Iterations, iterStatus{
			K: it.K, RPrimeRows: it.RPrimeRows, RRows: it.RRows,
			Patterns: it.CCount, RunsSpilled: it.RunsSpilled,
			PageIO: it.PageIO, Plan: it.Plan.String(),
			DurationUs:      it.Duration.Microseconds(),
			CheckpointBytes: it.CheckpointBytes,
			CheckpointUs:    it.CheckpointDuration.Microseconds(),
		})
	}
	return st
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parse job request: %v", err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	ds, ok := s.datasets[req.Dataset]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	s.nextJob++
	id := fmt.Sprintf("job-%d", s.nextJob)
	s.mu.Unlock()

	jopts := &walOpts{
		MinSupFrac: req.MinSupFrac, MinSupCount: req.MinSupCount,
		MaxLen: req.MaxPatternLn, MemBudget: req.MemBudget,
		MaxWorkers: req.MaxWorkers, TimeoutMs: req.TimeoutMs,
	}
	opts := s.effectiveOptions(jopts)
	jopts.MemBudget = opts.MemoryBudget // journaled as admitted
	if opts.MinSupportCount <= 0 && (opts.MinSupportFrac <= 0 || opts.MinSupportFrac > 1) {
		httpError(w, http.StatusBadRequest, "need minsup in (0,1] or minsup_count >= 1")
		return
	}

	j := &job{
		id: id, dataset: ds.Version, created: time.Now(),
		done: make(chan struct{}), state: stateQueued,
	}
	key := cacheKey{Version: ds.Version, Opts: core.CanonicalOptions(opts, ds.Transactions)}

	// Cache hit: the job is born done; no admission, no mining. Both
	// lifecycle records land in one WAL batch — a replayed cache-hit job
	// is never seen half-submitted.
	if res, ok := s.cache.get(key); ok {
		s.met.cacheHits.Add(1)
		j.mu.Lock()
		j.state, j.cached, j.result, j.iters = stateDone, true, res, res.Stats
		j.mu.Unlock()
		close(j.done)
		if !s.registerSubmitted(j) {
			httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
			return
		}
		_ = s.walAppend(
			walRecord{Type: recJob, JobID: j.id, Dataset: ds.Version, State: stateQueued, Opts: jopts},
			walRecord{Type: recJob, JobID: j.id, State: stateDone, Cached: true},
		)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	s.met.cacheMisses.Add(1)

	// Invalidate-and-patch: a derived version whose parent has a cached
	// result WITH a border snapshot under the same canonical options is
	// mined incrementally — O(delta) instead of O(full re-mine) — and
	// admitted at the (much smaller) delta footprint. The snapshot and
	// datasets are pinned in the plan now, immune to cache eviction
	// between submit and run.
	plan := s.deltaPlanFor(ds, opts)

	// Cost-based admission: estimate the job's peak footprint and gate
	// the sum of running estimates under the global budget.
	if plan != nil {
		deltaRows := ds.SalesRows - plan.snap.SalesRows
		j.est = costmodel.DeltaFootprint(deltaRows, ds.AvgBasket, plan.snap.Candidates(), opts.MemoryBudget)
	} else {
		j.est = costmodel.MineFootprint(ds.SalesRows, ds.AvgBasket, opts.MemoryBudget)
	}
	grant, err := s.adm.tryAdmit(j.est)
	switch {
	case errors.Is(err, errTooLarge):
		s.met.jobsRejected.Add(1)
		httpError(w, http.StatusTooManyRequests,
			"job footprint estimate %d bytes exceeds global budget %d", j.est, s.cfg.GlobalMemBudget)
		return
	case errors.Is(err, errQueueFull):
		s.met.jobsRejected.Add(1)
		httpError(w, http.StatusTooManyRequests, "admission queue full (%d waiting)", s.cfg.MaxQueue)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "admission: %v", err)
		return
	}
	ctx, cancel := s.jobContext(req.TimeoutMs)
	j.cancel = cancel
	if !s.registerSubmitted(j) {
		cancel()
		grant.release()
		httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	if grant.admitted() {
		s.met.jobsAdmitted.Add(1)
	} else {
		s.met.jobsQueued.Add(1)
	}

	// The submit record is journaled only once admission accepted: a
	// rejected submission was never acknowledged as work, so a restart
	// must not resurrect it.
	_ = s.walAppend(walRecord{
		Type: recJob, JobID: j.id, Dataset: ds.Version, State: stateQueued,
		Est: j.est, Opts: jopts,
	})
	s.wg.Add(1)
	go s.runJob(ctx, j, ds, opts, key, plan, grant, false)
	writeJSON(w, http.StatusAccepted, j.status())
}

// deltaPlanFor returns the incremental-mining plan for ds under opts,
// or nil when the job must mine cold: ds is not derived, the parent's
// result is not cached under the same canonical options, or the cached
// entry carries no border snapshot (e.g. restored from a restart that
// predates border persistence).
func (s *Server) deltaPlanFor(ds *dataset, opts core.Options) *deltaPlan {
	if ds.Parent == "" || ds.deltaD == nil {
		return nil
	}
	s.mu.Lock()
	parent, ok := s.datasets[ds.Parent]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	parentKey := cacheKey{Version: parent.Version, Opts: core.CanonicalOptions(opts, parent.Transactions)}
	_, snap, ok := s.cache.getBorder(parentKey)
	if !ok || snap == nil {
		return nil
	}
	return &deltaPlan{base: parent.d, delta: ds.deltaD, snap: snap}
}

// runJob waits for admission (if queued), mines, fills the cache, and
// releases the admission grant. It owns the job's terminal state. On a
// durable server the run checkpoints at the configured cadence; with
// resume set (boot recovery) it first tries to continue from the job's
// checkpoint, falling back to a full re-mine when none verifies — either
// way the result is bit-identical to an uninterrupted run.
func (s *Server) runJob(ctx context.Context, j *job, ds *dataset, opts core.Options, key cacheKey, plan *deltaPlan, grant *grant, resume bool) {
	defer s.wg.Done()
	defer close(j.done)
	defer grant.release()
	if j.cancel != nil {
		defer j.cancel() // detach from baseCtx; stops a timeout_ms timer
	}

	if err := grant.wait(ctx); err != nil {
		s.finishJob(j, nil, err)
		return
	}
	if grant.promoted {
		s.met.jobsAdmitted.Add(1)
	}
	// A job's pool carries only packed runs, which take no frame: its
	// capacity (the paged driver's 256) only sets the merge fan-in.
	pool := storage.NewPool(storage.NewMemStore(), 256)
	j.mu.Lock()
	j.state = stateRunning
	j.pool = pool
	j.mu.Unlock()

	var cp *core.Checkpoint
	if s.durable() {
		opts.Checkpoint = &core.CheckpointConfig{
			Dir:      s.checkpointDir(j.id),
			Interval: s.cfg.CheckpointInterval,
			NoSync:   s.cfg.NoSync,
			OnError:  func(error) { s.met.persistErrors.Add(1) },
		}
		if resume {
			// A damaged or mismatched checkpoint is "mine from scratch",
			// never a failed job.
			cp, _ = core.LoadCheckpoint(s.checkpointDir(j.id))
		}
	}
	// A resume replays the checkpoint's stats through onIter; only passes
	// this process mined count towards its checkpoint counters.
	replayed := 0
	if cp != nil {
		replayed = cp.K
	}
	onIter := func(it core.IterationStat) {
		j.mu.Lock()
		j.iters = append(j.iters, it)
		j.mu.Unlock()
		if it.CheckpointBytes > 0 && it.K > replayed {
			s.met.checkpointsWritten.Add(1)
			s.met.checkpointBytes.Add(it.CheckpointBytes)
		}
	}
	var res *core.Result
	var err error
	patched := false
	if plan != nil && cp == nil {
		// Incremental path: count the delta against the parent's retained
		// border and patch the parent's result. A snapshot the delta
		// cannot absorb (ErrBorder) demotes to a cold mine — never a
		// failed job. A resumed job (cp != nil) mines cold: its
		// checkpoint already identifies the combined dataset.
		s.met.deltaMines.Add(1)
		res, err = core.MineDeltaMonitored(ctx, plan.base, plan.delta, plan.snap, opts, pool, onIter)
		if err != nil && errors.Is(err, core.ErrBorder) {
			j.mu.Lock()
			j.iters = nil
			j.mu.Unlock()
			res, err = core.MineAutoResumeMonitored(ctx, ds.d, opts, pool, onIter, nil)
		} else if err == nil && len(res.Stats) > 0 && res.Stats[0].RPrimeRows == int64(plan.delta.NumSalesRows()) {
			// Only the pure path patches: a refresh that re-mined
			// base+delta inside counts all their SALES rows on pass 1.
			s.met.cachePatched.Add(1)
			patched = true
		}
	} else {
		res, err = core.MineAutoResumeMonitored(ctx, ds.d, opts, pool, onIter, cp)
		if cp != nil && err != nil && errors.Is(err, core.ErrCheckpoint) {
			// The checkpoint passed surface verification but was rejected at
			// resume depth (e.g. dataset drift); discard it and re-mine.
			j.mu.Lock()
			j.iters = nil
			j.mu.Unlock()
			replayed = 0
			res, err = core.MineAutoResumeMonitored(ctx, ds.d, opts, pool, onIter, nil)
		} else if cp != nil {
			s.met.checkpointResumes.Add(1)
		}
	}
	if err == nil {
		s.cache.put(key, res, res.Border)
		s.persistResult(key, res)
	}
	j.mu.Lock()
	j.delta = patched
	j.mu.Unlock()
	s.finishJob(j, res, err)
}

// finishJob records the terminal state, journals it, bumps the outcome
// counters, and retires the job's checkpoint directory.
func (s *Server) finishJob(j *job, res *core.Result, err error) {
	j.mu.Lock()
	j.pool = nil
	switch {
	case err == nil:
		j.state, j.result, j.iters = stateDone, res, res.Stats
		s.met.jobsDone.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.state, j.errMsg = stateFailed, "wall-clock timeout exceeded: "+err.Error()
		s.met.jobsFailed.Add(1)
		s.met.jobsTimedOut.Add(1)
	case errors.Is(err, context.Canceled):
		j.state, j.errMsg = stateCancelled, err.Error()
		s.met.jobsCancelled.Add(1)
	default:
		j.state, j.errMsg = stateFailed, err.Error()
		s.met.jobsFailed.Add(1)
	}
	state, errMsg, cached := j.state, j.errMsg, j.cached
	j.mu.Unlock()
	if s.durable() {
		_ = s.walAppend(walRecord{Type: recJob, JobID: j.id, State: state, Error: errMsg, Cached: cached})
		os.RemoveAll(s.checkpointDir(j.id))
	}
}

func (s *Server) registerJob(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.mu.Unlock()
}

// registerSubmitted is registerJob for a fresh submit, refused when the data
// set was deleted since the handler looked it up. A submit registers before
// it journals or runs, so a DELETE came first (404 here) or finds the job.
func (s *Server) registerSubmitted(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, live := s.datasets[j.dataset]
	if live {
		s.jobs[j.id] = j
		s.jobOrder = append(s.jobOrder, j.id)
	}
	return live
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil
	}
	return j
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		list = append(list, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatus, len(list))
	for i, j := range list {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	// ?wait=1 blocks until the job reaches a terminal state — the poll
	// endpoint doubles as a completion stream without long-poll loops.
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, res, errMsg := j.state, j.result, j.errMsg
	j.mu.Unlock()
	switch state {
	case stateDone: // holds a result: losing it makes the job failed (discard)
		writeJSON(w, http.StatusOK, res)
	case stateFailed, stateCancelled:
		httpError(w, http.StatusGone, "job %s: %s", state, errMsg)
	default:
		httpError(w, http.StatusConflict, "job is %s; result not ready", state)
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if j.cancel != nil {
		j.cancel()
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, j.status())
}

// --- plumbing -------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
