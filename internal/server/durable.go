package server

// Durable setmd state. A server constructed with Open and a non-empty
// Config.DataDir survives kill -9: every state transition that matters
// for recovery is journaled before it is acknowledged, and boot is a
// pure replay of that journal plus the side files it references.
//
// Data directory layout:
//
//	wal.log                     state journal (internal/wal framing,
//	                            JSON records)
//	datasets/<version>.sales    normalized SALES text, written
//	                            atomically BEFORE the registration
//	                            record — a journaled dataset always has
//	                            its blob
//	results/<version>-s<minsup>-l<maxlen>.json
//	                            one completed mining result per cache
//	                            key, written atomically before the
//	                            job's terminal record
//	checkpoints/<job-id>/       per-job mining checkpoints
//	                            (core.CheckpointConfig), created by a
//	                            job's first checkpoint — a mine cheaper
//	                            to redo than to protect never writes
//	                            one — and removed when the job reaches
//	                            a terminal state
//
// Fsync discipline: WAL appends fsync per batch (wal.Log); blobs,
// result envelopes, and checkpoints go through temp-file + fsync +
// rename, so a crash can tear only the WAL tail (truncated silently on
// replay) or leave *.tmp debris (swept at boot). A job journals two
// records, the ones replay reads: queued at submission and its terminal
// state; what happens in between (running, passes) is not journaled,
// since replay re-enqueues a job without a terminal record either way.
// The terminal record is best-effort — a failed append degrades
// durability, counted by setmd_wal_append_errors, never the request.
//
// Recovery: replay rebuilds the dataset registry (registration records
// minus deletions, blobs re-parsed), restores completed results into
// the cache and their jobs' ledgers from the result envelopes, restores
// failed/cancelled jobs with their messages, and re-enqueues every job
// without a terminal record back through admission — resuming from
// its checkpoint when one verifies (core.LoadCheckpoint), re-mining
// from scratch when none does or none was written. Either way the
// result is bit-identical to an uninterrupted run.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"setm"
	"setm/internal/core"
	"setm/internal/storage"
	"setm/internal/wal"
)

const (
	walFileName        = "wal.log"
	datasetsDirName    = "datasets"
	resultsDirName     = "results"
	checkpointsDirName = "checkpoints"
)

// WAL record types.
const (
	recDataset    = "dataset"     // dataset registered (blob already on disk)
	recDatasetApp = "dataset-app" // derived dataset appended (delta blob on disk)
	recDatasetDel = "dataset-del" // dataset unregistered
	recJob        = "job"         // job lifecycle transition (State field)
)

// walRecord is the JSON payload of one WAL record. One struct covers
// all record types; unused fields are omitted on the wire.
type walRecord struct {
	Type string `json:"type"`

	// recDataset / recDatasetApp / recDatasetDel
	Version      string  `json:"version,omitempty"`
	Transactions int     `json:"transactions,omitempty"`
	SalesRows    int64   `json:"sales_rows,omitempty"`
	AvgBasket    float64 `json:"avg_basket,omitempty"`
	Parent       string  `json:"parent,omitempty"` // recDatasetApp: the base version

	// recJob
	JobID   string   `json:"job_id,omitempty"`
	Dataset string   `json:"dataset,omitempty"`
	State   string   `json:"state,omitempty"`
	Cached  bool     `json:"cached,omitempty"` // done: served from cache
	Est     int64    `json:"est,omitempty"`    // admission estimate at submit
	Error   string   `json:"error,omitempty"`  // failed/cancelled reason
	Opts    *walOpts `json:"opts,omitempty"`   // submit: effective options
}

// walOpts journals the effective mining options of a submitted job —
// never core.Options itself, whose Checkpoint field does not marshal.
type walOpts struct {
	MinSupFrac  float64 `json:"minsup,omitempty"`
	MinSupCount int64   `json:"minsup_count,omitempty"`
	MaxLen      int     `json:"maxlen,omitempty"`
	MemBudget   int64   `json:"membudget,omitempty"`
	MaxWorkers  int     `json:"maxworkers,omitempty"`
	TimeoutMs   int64   `json:"timeout_ms,omitempty"`
}

func (o *walOpts) options() core.Options {
	return core.Options{
		MinSupportFrac:  o.MinSupFrac,
		MinSupportCount: o.MinSupCount,
		MaxPatternLen:   o.MaxLen,
		MemoryBudget:    o.MemBudget,
		MaxWorkers:      o.MaxWorkers,
	}
}

// resultEnvelope is one completed mining result on disk, named and
// keyed by (dataset version, canonical options) exactly like the
// in-memory cache, so boot can rebuild both the cache and each done
// job's ledger from the same file.
type resultEnvelope struct {
	Version     string       `json:"version"`
	MinSupCount int64        `json:"minsup_count"`
	MaxLen      int          `json:"maxlen"`
	Result      *core.Result `json:"result"`
}

// Open builds a Server like New and, when cfg.DataDir is set, makes it
// durable: the data directory is created, *.tmp debris swept, the WAL
// replayed into the dataset registry and job ledger, completed results
// restored from their envelopes, and interrupted jobs re-enqueued
// through admission (resuming from their checkpoints when intact).
// Callers of a durable server should Close it after Drain.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if s.cfg.DataDir == "" {
		return s, nil
	}
	if err := s.bootDurable(); err != nil {
		s.baseCancel()
		return nil, fmt.Errorf("setmd: recover datadir %s: %w", s.cfg.DataDir, err)
	}
	return s, nil
}

// durable reports whether this server journals state. Only Open sets
// the WAL; a New-built server with DataDir set stays in-memory.
func (s *Server) durable() bool { return s.wal != nil }

func (s *Server) walPath() string        { return filepath.Join(s.cfg.DataDir, walFileName) }
func (s *Server) datasetsDir() string    { return filepath.Join(s.cfg.DataDir, datasetsDirName) }
func (s *Server) resultsDir() string     { return filepath.Join(s.cfg.DataDir, resultsDirName) }
func (s *Server) checkpointsDir() string { return filepath.Join(s.cfg.DataDir, checkpointsDirName) }

func (s *Server) datasetBlobPath(version string) string {
	return filepath.Join(s.datasetsDir(), version+".sales")
}

// deltaBlobPath names a derived version's journaled delta: only the
// appended transactions, re-derived against the parent at boot.
func (s *Server) deltaBlobPath(version string) string {
	return filepath.Join(s.datasetsDir(), version+".delta")
}

// borderPath names the border-snapshot sidecar of a result envelope.
func (s *Server) borderPath(key cacheKey) string {
	name := fmt.Sprintf("%s-s%d-l%d.border", key.Version, key.Opts.MinSupportCount, key.Opts.MaxPatternLen)
	return filepath.Join(s.resultsDir(), name)
}

func (s *Server) checkpointDir(jobID string) string {
	return filepath.Join(s.checkpointsDir(), jobID)
}

// resultPath names a result envelope by its cache key. Versions are
// content hashes ("ds-<hex>") and the canonical options reduce to two
// integers, so the name is filesystem-safe and collision-free.
func (s *Server) resultPath(key cacheKey) string {
	name := fmt.Sprintf("%s-s%d-l%d.json", key.Version, key.Opts.MinSupportCount, key.Opts.MaxPatternLen)
	return filepath.Join(s.resultsDir(), name)
}

// walAppend marshals and appends records in one batch. Errors are
// counted and returned; most callers treat job transitions as
// best-effort and ignore them, while dataset registration does not.
func (s *Server) walAppend(recs ...walRecord) error {
	if s.wal == nil {
		return nil
	}
	bufs := make([][]byte, len(recs))
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			s.met.walAppendErrors.Add(1)
			return err
		}
		bufs[i] = b
	}
	if err := s.wal.Append(bufs...); err != nil {
		s.met.walAppendErrors.Add(1)
		return err
	}
	return nil
}

// persistDataset writes the normalized blob atomically, then journals
// the registration. The order is the crash-consistency contract: a
// replayed dataset record implies its blob committed first.
func (s *Server) persistDataset(ds *dataset, norm []byte) error {
	if !s.durable() {
		return nil
	}
	if err := storage.WriteFileAtomic(s.datasetBlobPath(ds.Version), s.cfg.NoSync, writeBytes(norm)); err != nil {
		return err
	}
	return s.walAppend(walRecord{
		Type: recDataset, Version: ds.Version,
		Transactions: ds.Transactions, SalesRows: ds.SalesRows, AvgBasket: ds.AvgBasket,
	})
}

// persistAppend writes a derived version's delta blob atomically, then
// journals the append record with its parent link. Same contract as
// persistDataset: a replayed append record always finds its blob (and,
// via the delete guard, its parent).
func (s *Server) persistAppend(ds *dataset, deltaNorm []byte) error {
	if !s.durable() {
		return nil
	}
	if err := storage.WriteFileAtomic(s.deltaBlobPath(ds.Version), s.cfg.NoSync, writeBytes(deltaNorm)); err != nil {
		return err
	}
	return s.walAppend(walRecord{
		Type: recDatasetApp, Version: ds.Version, Parent: ds.Parent,
		Transactions: ds.Transactions, SalesRows: ds.SalesRows, AvgBasket: ds.AvgBasket,
	})
}

// persistResult spills a completed result to its envelope — plus, when
// the mine retained a border snapshot, the snapshot's binary sidecar —
// best-effort (the in-memory cache still has both; only restart recall
// degrades).
func (s *Server) persistResult(key cacheKey, res *core.Result) {
	if !s.durable() {
		return
	}
	env := resultEnvelope{
		Version: key.Version, MinSupCount: key.Opts.MinSupportCount,
		MaxLen: key.Opts.MaxPatternLen, Result: res,
	}
	data, err := json.Marshal(&env)
	if err == nil {
		err = storage.WriteFileAtomic(s.resultPath(key), s.cfg.NoSync, writeBytes(data))
	}
	if err != nil {
		s.met.persistErrors.Add(1)
	}
	if res.Border != nil {
		if err := core.SaveBorder(s.borderPath(key), res.Border, s.cfg.NoSync); err != nil {
			s.met.persistErrors.Add(1)
		}
	}
}

// loadResult reads one result envelope back; (nil, false) when absent
// or damaged — the caller treats the result as lost, never fails boot.
func (s *Server) loadResult(key cacheKey) (*core.Result, bool) {
	data, err := os.ReadFile(s.resultPath(key))
	if err != nil {
		return nil, false
	}
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Result == nil {
		return nil, false
	}
	return env.Result, true
}

// replayedJob accumulates one job's WAL records during replay: the
// submit record plus the last state transition wins.
type replayedJob struct {
	sub    walRecord // the submit record (dataset, est, opts)
	state  string
	errMsg string
	cached bool
}

// bootDurable recovers the server from its data directory.
func (s *Server) bootDurable() error {
	for _, dir := range []string{s.cfg.DataDir, s.datasetsDir(), s.resultsDir(), s.checkpointsDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	sweepTmp(s.cfg.DataDir)

	// Replay the journal into a flat model of the final state: the
	// surviving dataset records and each job's last transition.
	// Records that fail to unmarshal are skipped — the WAL's CRC already
	// vouched for their bytes, so a bad record is version skew, and one
	// unknown record must not take down recovery of everything else.
	dsRecs := make(map[string]walRecord)
	appRecs := make(map[string]walRecord)
	var appOrder []string
	jobs := make(map[string]*replayedJob)
	var jobOrder []string
	w, err := wal.Open(s.walPath(), func(rec []byte) error {
		var r walRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			return nil
		}
		switch r.Type {
		case recDataset:
			dsRecs[r.Version] = r // duplicates are idempotent by construction
		case recDatasetApp:
			if _, ok := appRecs[r.Version]; !ok {
				appOrder = append(appOrder, r.Version)
			}
			appRecs[r.Version] = r
		case recDatasetDel:
			delete(dsRecs, r.Version)
			delete(appRecs, r.Version)
		case recJob:
			rj, ok := jobs[r.JobID]
			if !ok {
				rj = &replayedJob{sub: r, state: stateQueued}
				jobs[r.JobID] = rj
				jobOrder = append(jobOrder, r.JobID)
			}
			// Only a terminal record moves a job off queued. Anything else —
			// the submit record itself, the "running" and "iter" records
			// older logs hold — leaves it to be re-enqueued.
			switch r.State {
			case stateDone, stateFailed, stateCancelled:
				rj.state, rj.errMsg, rj.cached = r.State, r.Error, r.Cached
			}
		}
		return nil
	}, wal.Options{NoSync: s.cfg.NoSync})
	if err != nil {
		return err
	}
	s.wal = w

	// Rebuild the dataset registry. A journaled dataset whose blob is
	// missing or unreadable is dropped — registration never outlives its
	// bytes — and jobs referencing it fail with a clear reason below.
	versions := make([]string, 0, len(dsRecs))
	for v := range dsRecs {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	for _, v := range versions {
		rec := dsRecs[v]
		f, err := os.Open(s.datasetBlobPath(v))
		if err != nil {
			continue
		}
		d, err := setm.ReadDataset(f)
		f.Close()
		if err != nil {
			continue
		}
		s.datasets[v] = &dataset{
			Version: v, Transactions: rec.Transactions,
			SalesRows: rec.SalesRows, AvgBasket: rec.AvgBasket, d: d,
			hc: &hashCache{},
		}
	}

	// Re-derive appended versions: parent transactions plus the delta
	// blob. Append records replay in journal order, so chains (appends
	// to appends) resolve parent-before-child; a child whose parent or
	// blob is gone is dropped, exactly like a base dataset without its
	// bytes.
	for _, v := range appOrder {
		rec, ok := appRecs[v]
		if !ok {
			continue // deleted later in the journal
		}
		if _, dup := s.datasets[v]; dup {
			continue
		}
		parent, ok := s.datasets[rec.Parent]
		if !ok {
			continue
		}
		f, err := os.Open(s.deltaBlobPath(v))
		if err != nil {
			continue
		}
		deltaD, err := setm.ReadDataset(f)
		f.Close()
		if err != nil {
			continue
		}
		cd := &core.Dataset{}
		cd.Transactions = append(cd.Transactions, parent.d.Transactions...)
		cd.Transactions = append(cd.Transactions, deltaD.Transactions...)
		s.datasets[v] = &dataset{
			Version: v, Transactions: rec.Transactions,
			SalesRows: rec.SalesRows, AvgBasket: rec.AvgBasket,
			Parent: rec.Parent, DeltaTxns: deltaD.NumTransactions(),
			d: cd, deltaD: deltaD,
			hc: &hashCache{},
		}
	}

	// Warm the result cache from the spilled envelopes of datasets that
	// still exist; stale envelopes (deleted datasets) are removed.
	if entries, err := os.ReadDir(s.resultsDir()); err == nil {
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			path := filepath.Join(s.resultsDir(), e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			var env resultEnvelope
			if err := json.Unmarshal(data, &env); err != nil || env.Result == nil {
				continue
			}
			if _, ok := s.datasets[env.Version]; !ok {
				os.Remove(path)
				os.Remove(strings.TrimSuffix(path, ".json") + ".border")
				continue
			}
			key := cacheKey{Version: env.Version, Opts: core.Options{
				MinSupportCount: env.MinSupCount, MaxPatternLen: env.MaxLen,
			}}
			// The border sidecar is optional: absent or damaged means the
			// cached result cannot seed incremental mines, nothing more.
			border, _ := core.LoadBorder(s.borderPath(key))
			s.cache.put(key, env.Result, border)
		}
	}

	// Rebuild the job ledger in submit order and re-enqueue survivors.
	for _, id := range jobOrder {
		rj := jobs[id]
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > s.nextJob {
			s.nextJob = n
		}
		j := &job{
			id: id, dataset: rj.sub.Dataset, est: rj.sub.Est,
			created: time.Now(), done: make(chan struct{}), state: rj.state,
		}
		switch rj.state {
		case stateDone:
			s.restoreDoneJob(j, rj)
		case stateFailed, stateCancelled:
			j.errMsg, j.cached = rj.errMsg, rj.cached
			close(j.done)
			s.registerJob(j)
			os.RemoveAll(s.checkpointDir(id)) // debris from a crash mid-finish
		default: // no terminal record: back through admission
			s.resumeJob(j, rj)
		}
	}
	return nil
}

// restoreDoneJob reattaches a completed job's result from its envelope.
// A lost envelope downgrades the job to failed with a clear reason —
// never a crash, never a silent empty result.
func (s *Server) restoreDoneJob(j *job, rj *replayedJob) {
	defer func() {
		close(j.done)
		s.registerJob(j)
		os.RemoveAll(s.checkpointDir(j.id))
	}()
	j.cached = rj.cached
	ds, ok := s.datasets[j.dataset]
	if !ok {
		j.discard(discardedResult)
		return
	}
	opts := rj.sub.Opts
	if opts == nil {
		j.discard("result lost: submit record incomplete")
		return
	}
	key := cacheKey{Version: ds.Version, Opts: core.CanonicalOptions(s.effectiveOptions(opts), ds.Transactions)}
	res, ok := s.loadResult(key)
	if !ok {
		j.discard("result lost: envelope missing after restart")
		return
	}
	j.result, j.iters = res, res.Stats
}

// resumeJob re-enqueues a job interrupted by the crash. Admission is
// re-run — the restarted server may have a different budget — and a
// rejection turns into a journaled failure rather than a refused HTTP
// request, since the original submission was already acknowledged.
func (s *Server) resumeJob(j *job, rj *replayedJob) {
	fail := func(msg string) {
		j.state, j.errMsg = stateFailed, msg
		close(j.done)
		s.registerJob(j)
		_ = s.walAppend(walRecord{Type: recJob, JobID: j.id, State: stateFailed, Error: msg})
		os.RemoveAll(s.checkpointDir(j.id))
		s.met.jobsFailed.Add(1)
	}
	ds, ok := s.datasets[j.dataset]
	if !ok {
		fail("not resumed: dataset deleted or lost")
		return
	}
	if rj.sub.Opts == nil {
		fail("not resumed: submit record incomplete")
		return
	}
	opts := s.effectiveOptions(rj.sub.Opts)
	key := cacheKey{Version: ds.Version, Opts: core.CanonicalOptions(opts, ds.Transactions)}

	// The crash may have hit between the result envelope commit and the
	// terminal record: the work is done, only the journal didn't hear.
	if res, ok := s.cache.get(key); ok {
		j.state, j.cached, j.result, j.iters = stateDone, true, res, res.Stats
		close(j.done)
		s.registerJob(j)
		_ = s.walAppend(walRecord{Type: recJob, JobID: j.id, State: stateDone, Cached: true})
		os.RemoveAll(s.checkpointDir(j.id))
		s.met.jobsResumed.Add(1)
		return
	}

	// Re-detect the incremental opportunity: the parent's result and
	// border were restored from their envelopes, so an interrupted
	// delta mine stays a delta mine after restart. runJob ignores the
	// plan when a verified checkpoint exists (the delta path's executor
	// fallback checkpoints against the combined dataset).
	plan := s.deltaPlanFor(ds, opts)
	j.delta = plan != nil

	grant, err := s.adm.tryAdmit(j.est)
	if err != nil {
		fail(fmt.Sprintf("not readmitted after restart: %v", err))
		return
	}
	ctx, cancel := s.jobContext(rj.sub.Opts.TimeoutMs)
	j.cancel = cancel
	s.registerJob(j)
	s.met.jobsResumed.Add(1)
	s.wg.Add(1)
	go s.runJob(ctx, j, ds, opts, key, plan, grant, true)
}

// effectiveOptions is a job's options, built in this one place for a
// submission and its replay alike: the request's, the server-side default
// budget, and RetainBorder — every mine retains its negative border so a
// later append to this dataset can refresh the result incrementally
// (invisible in the counts and in cache keys: CanonicalOptions zeroes it).
func (s *Server) effectiveOptions(o *walOpts) core.Options {
	opts := o.options()
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = s.cfg.JobMemBudget
	}
	opts.RetainBorder = true
	return opts
}

// jobContext derives a job's context: cancellable, deadline-bounded
// when the submission asked for a wall-clock timeout.
func (s *Server) jobContext(timeoutMs int64) (context.Context, context.CancelFunc) {
	if timeoutMs > 0 {
		return context.WithTimeout(s.baseCtx, time.Duration(timeoutMs)*time.Millisecond)
	}
	return context.WithCancel(s.baseCtx)
}

// Close releases the server's durable resources (the WAL) and cancels
// any still-running jobs. Call it after Drain; on an in-memory server
// it only cancels. Idempotent.
func (s *Server) Close() error {
	s.baseCancel()
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// writeBytes is a storage.WriteFileAtomic body that writes data.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// sweepTmp removes temp-file debris (storage.WriteFileAtomic's *.tmp
// files) left by a crash mid-write anywhere in the datadir.
func sweepTmp(root string) {
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			os.Remove(path)
		}
		return nil
	})
}
