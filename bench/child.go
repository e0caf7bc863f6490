package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"setm/internal/core"
)

// runConfig is one run of one workload in one process.
type runConfig struct {
	w         workload
	seed      int64
	seconds   float64 // length of the measured pass
	trace     bool    // false: end-to-end metrics, tracing off; true: per-layer metrics
	sc        scale
	refs      []uint64 // digests from reference(), computed in the parent
	outDir    string   // scratch files and the trace go here
	setupOnly bool     // stop after set-up (the parent takes the median of several)
}

// runResult is what a run reports; the child prints it as one JSON line.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	SetupS    float64  `json:"setup_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	Flags     []string `json:"flags,omitempty"`
	InputSHA  []string `json:"input_sha256,omitempty"`
	Refs      []uint64 `json:"reference_digests,omitempty"`
}

// probeWorkload is the resident retail mine the layer probes use when the
// workload's own op is not a native one.
var probeWorkload = workload{name: "probe", kind: "native", data: "retail", minsup: 0.001}

// state is everything set-up leaves for the passes.
type state struct {
	cfg       runConfig
	tmp       string
	genS      float64
	firstMine float64 // wall of the process's first op
	native    *nativeEnv
	sql       *sqlEnv
	setmd     *setmdEnv
	// ds and ops are the data sets of a native or sql workload and the
	// untraced op over each (setmd-mix drives its clients instead). The
	// traced pass works on the first, the seed's own: native or sql.
	ds  []*core.Dataset
	ops []func() (time.Duration, error)
}

// autoDigest fingerprints what an in-process MineAuto finds in retail
// data: the reference of a probe that is off the workload's path, where
// no independent one was computed.
func autoDigest(d *core.Dataset) (uint64, error) {
	res, err := core.MineAuto(d, core.Options{MinSupportFrac: probeWorkload.minsup})
	if err != nil {
		return 0, err
	}
	return digestCounts(res.Counts), nil
}

// pairRefs groups reference()'s flat digest list per body.
func pairRefs(flat []uint64) [][2]uint64 {
	out := make([][2]uint64, len(flat)/2)
	for i := range out {
		out[i] = [2]uint64{flat[2*i], flat[2*i+1]}
	}
	return out
}

// setup generates the inputs, starts what the ops need, and warms up until
// arenas, plan caches and connections are at their high-water mark.
func setup(cfg runConfig, tmp string) (*state, error) {
	st := &state{cfg: cfg, tmp: tmp}
	w := cfg.w
	warm := w.warmup
	if !cfg.sc.warmup {
		warm = 1
	}
	tl := new(tally)
	start := time.Now()
	if w.kind == "setmd" {
		bodies, err := makeBodies(cfg.seed, cfg.sc)
		if err != nil {
			return nil, err
		}
		st.genS = time.Since(start).Seconds()
		st.setmd, err = startSetmd(filepath.Join(tmp, "data"), bodies, pairRefs(cfg.refs), w.minsup)
		if err != nil {
			return nil, err
		}
		plain, _, _ := st.setmd.run(nil, budget{0, max(1, warm/clients())}, tl)
		if len(plain.cold) > 0 {
			st.firstMine = plain.cold[0]
		}
	} else {
		for i, ref := range cfg.refs {
			d := makeDataset(w.data, cfg.seed+int64(i), cfg.sc)
			st.ds = append(st.ds, d)
			if w.kind == "sql" {
				env := &sqlEnv{d: d, minsup: w.minsup, ref: ref}
				if i == 0 {
					st.sql = env
				}
				st.ops = append(st.ops, func() (time.Duration, error) {
					op, err := env.mine(nil, 0)
					return op.wall, err
				})
			} else {
				env := &nativeEnv{w: w, d: d, ref: ref, tmp: tmp}
				if i == 0 {
					st.native = env
				}
				st.ops = append(st.ops, func() (time.Duration, error) {
					op, err := env.mine(nil, 0)
					return op.wall, err
				})
			}
		}
		st.genS = time.Since(start).Seconds()
		for i := 0; i < max(warm, len(st.ops)); i++ {
			took, err := st.ops[i%len(st.ops)]()
			tl.note(err)
			if i == 0 {
				st.firstMine = took.Seconds()
			}
		}
	}
	if tl.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", tl.failed, tl.attempted, tl.errs)
	}
	return st, nil
}

// close stops what set-up started.
func (st *state) close() {
	if st.setmd != nil {
		st.setmd.stop()
	}
}

// runWorkload is one run: set-up, then the measured pass (tracing off,
// end-to-end metrics) or the traced pass (per-layer metrics).
func runWorkload(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(passProcs(cfg.trace))
	cfg.w.budget /= cfg.sc.budgetDiv
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	st, err := setup(cfg, tmp)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := &runResult{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, SetupS: time.Since(start).Seconds()}
	if cfg.setupOnly {
		return res, nil
	}
	rep, tl := new(report), new(tally)
	if cfg.trace {
		if err := st.tracedPass(rep, tl); err != nil {
			return nil, err
		}
	} else {
		rep.add("setup_s", "s", res.SetupS) // the parent puts the median of several set-ups here
		st.measuredPass(rep, tl)
		rep.add("peak_rss_mb", "MB", peakRSS()/1e6)
	}
	res.Attempted, res.Failed, res.Errors = tl.attempted, tl.failed, tl.errs
	res.Metrics, res.Flags = rep.metrics, rep.flags
	return res, nil
}

// measuredPass runs the workload's op in a closed loop for cfg.seconds
// with tracing off; every end-to-end metric comes from here.
func (st *state) measuredPass(rep *report, tl *tally) {
	b := budget{st.cfg.seconds, st.cfg.sc.minOps}
	var rows int64
	var wall time.Duration
	if st.setmd != nil {
		b.minOps = max(1, b.minOps/clients())
		var log *cycleLog
		log, _, wall = st.setmd.run(nil, b, tl)
		rows = log.rows
		rep.addMedian("mine_p50_s", "s", log.cold, 1)
		rep.addMedian("upload_p50_s", "s", log.upload, 1)
		rep.addMedian("hit_p50_s", "s", log.hit, 1)
		rep.addMedian("refresh_p50_s", "s", log.refresh, 1)
	} else {
		// The ops take the data sets in turn; mine_p50_s is the median per
		// data set, averaged over the data sets, so that no one seed's
		// luck with its data decides the run.
		walls := make([]samples, len(st.ops))
		b.minOps = max(b.minOps, len(st.ops))
		i, start := 0, time.Now()
		b.run(func() {
			took, err := st.ops[i]()
			tl.note(err)
			if err == nil {
				walls[i].add(took)
				rows += int64(st.ds[i].NumSalesRows())
			}
			i = (i + 1) % len(st.ops)
		})
		wall = time.Since(start)
		var sum float64
		n := 0
		for _, s := range walls {
			sum += median(s)
			n += len(s)
		}
		rep.add("mine_p50_s", "s", sum/float64(len(walls)))
		rep.metrics[len(rep.metrics)-1].N = n
	}
	rep.add("sales_rows_per_s", "rows/s", ratio(float64(rows), wall.Seconds()))
}

// tracedPass measures every layer. The workload's own op gets half the
// measured time, alternating tracing off and on; the layers its op does
// not reach are probed briefly on the retail data of the same seed, so
// every run reports every layer metric, measured.
func (st *state) tracedPass(rep *report, tl *tally) error {
	cfg := st.cfg
	tr := newTracer()
	own := budget{cfg.seconds / 2, cfg.sc.minOps}
	off := budget{0, cfg.sc.probeOps}
	pick := func(kind string) budget {
		if cfg.w.kind == kind {
			return own
		}
		return off
	}
	rep.add("gen.dataset_s", "s", st.genS)
	rep.add("core.first_mine_s", "s", st.firstMine)

	// The retail data the off-path probes run on, and its digest.
	native := st.native
	var retail *core.Dataset
	var retailRef uint64
	switch {
	case st.setmd != nil:
		retail, retailRef = st.setmd.bodies[0].baseD, st.setmd.refs[0][0]
	case cfg.w.data == "retail":
		retail, retailRef = st.ds[0], cfg.refs[0]
	default:
		retail = makeDataset("retail", cfg.seed, cfg.sc)
		var err error
		if retailRef, err = autoDigest(retail); err != nil {
			return err
		}
	}
	if native == nil {
		native = &nativeEnv{w: probeWorkload, d: retail, ref: retailRef, tmp: st.tmp}
	}

	times := make(map[string]probeTimes) // by the kind of workload that owns the probe
	var last nativeOp
	times["native"], last = nativeProbe(native, tr, pick("native"), rep, tl)
	deltaProbe(cfg.seed, cfg.sc, 2*cfg.sc.probeOps, rep, tl)

	sql := st.sql
	if sql == nil {
		sql = &sqlEnv{d: retail, minsup: probeWorkload.minsup, ref: retailRef}
	}
	times["sql"] = sqlProbe(sql, tr, pick("sql"), rep, tl)

	runBytes := native.w.budget
	if runBytes == 0 {
		runBytes = 8 << 20
	}
	sortProbe(int(min(rPrime2(last.res), int64(cfg.sc.sortRows))), runBytes, cfg.seed, st.tmp, rep, tl)
	parseProbe(rep, tl)
	engineProbe(retail, probeWorkload.minsup, cfg.sc.probeOps, rep, tl)
	heapProbe(retail, cfg.sc.probeOps, rep, tl)
	if last.res != nil {
		rulesProbe(last.res, cfg.sc.probeOps, rep, tl)
	}
	datasetIOProbe(retail, cfg.sc.probeOps, rep, tl)
	walProbe(st.tmp, 50*cfg.sc.probeOps, rep, tl)

	setmd := st.setmd
	if setmd == nil {
		sc := cfg.sc
		sc.bodies = clients()
		bodies, err := makeBodies(cfg.seed, sc)
		if err != nil {
			return err
		}
		// Off the workload's path there is no independent reference;
		// the service's answers must match an in-process MineAuto.
		refs := make([][2]uint64, len(bodies))
		for i, b := range bodies {
			for j, d := range []*core.Dataset{b.baseD, b.grownD} {
				if refs[i][j], err = autoDigest(d); err != nil {
					return err
				}
			}
		}
		setmd, err = startSetmd(filepath.Join(st.tmp, "data"), bodies, refs, probeWorkload.minsup)
		if err != nil {
			return err
		}
		st.setmd = setmd // so close() stops it if the probe bails out early
		setmd.run(nil, budget{0, 1}, tl)
	}
	b := pick("setmd")
	b.minOps = max(2, 2*b.minOps/clients()) // each body once untraced, once traced
	times["setmd"] = setmdProbe(setmd, tr, b, rep, tl)

	overhead := times[cfg.w.kind].overhead()
	rep.add("bench.trace_overhead_share", "share", overhead)
	if overhead >= 0.05 {
		rep.flag("FLAG bench.trace_overhead_share %.3f: the trace costs 5%% or more, do not trust it", overhead)
	}
	if v, _ := metricValue(rep.metrics, "core.parallel_speedup"); cfg.w.name == "quest-resident" && v < 1.15 {
		rep.flag("FLAG core.parallel_speedup %.2f on quest-resident: the parallel kernels do not pay", v)
	}
	if v, _ := metricValue(rep.metrics, "exec.parallel_speedup"); cfg.w.name == "retail-sql" && v < 1.15 {
		rep.flag("FLAG exec.parallel_speedup %.2f on retail-sql: the exchange operators do not pay", v)
	}
	return tr.write(filepath.Join(cfg.outDir, cfg.w.name+".trace.json"))
}

// peakRSS is the process's VmHWM in bytes.
func peakRSS() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb * 1024
		}
	}
	return 0
}
