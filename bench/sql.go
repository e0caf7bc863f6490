package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"setm/internal/core"
	"setm/internal/engine"
	"setm/internal/heap"
	"setm/internal/rules"
	"setm/internal/sqlparse"
	"setm/internal/storage"
	"setm/internal/tuple"
)

// stmtClasses are the operator families a SETM iteration's SQL falls
// into: DDL, the R'_k extension join, the C_k count, the R_k filter join,
// and result read-back. "load" is not a statement: it is the SALES bulk
// load MineSQL does before its first one, so the classes sum to the mine.
var stmtClasses = []string{"load", "ddl", "extend", "count", "filter", "read"}

// classify puts one of MineSQL's statements into its class by its text,
// or returns "" for a statement of no known shape.
func classify(sql string) string {
	f := strings.Fields(strings.ToLower(sql))
	switch {
	case len(f) == 0:
		return ""
	case f[0] == "create" || f[0] == "drop":
		return "ddl"
	case f[0] == "select":
		return "read"
	case len(f) < 3 || f[0] != "insert" || f[1] != "into":
		return ""
	case strings.HasPrefix(f[2], "rp"):
		return "extend"
	case strings.HasPrefix(f[2], "c"):
		return "count"
	case strings.HasPrefix(f[2], "r"):
		return "filter"
	}
	return ""
}

// sqlEnv is what a core.MineSQL op runs against.
type sqlEnv struct {
	d      *core.Dataset
	minsup float64
	ref    uint64
}

// sqlOp is what one SQL mine left behind; class and stmts only when traced.
type sqlOp struct {
	wall  time.Duration
	class map[string]time.Duration // time per statement class, summed over the mine
	stmts int
}

// mine runs one op. With a tracer, SQLConfig.TraceSQL timestamps every
// statement as it is issued: a statement's span runs until the next one
// starts (the last one until the mine returns), and the time before the
// first is the SALES bulk load.
func (e *sqlEnv) mine(tr *tracer, workers int) (sqlOp, error) {
	type mark struct {
		at  int64
		sql string
	}
	var marks []mark
	var cfg core.SQLConfig
	root := tr.newOp("op")
	if tr != nil {
		cfg.TraceSQL = func(sql string) { marks = append(marks, mark{tr.now(), sql}) }
	}
	start := time.Now()
	res, err := core.MineSQL(e.d, core.Options{MinSupportFrac: e.minsup, MaxWorkers: workers}, cfg)
	op := sqlOp{wall: time.Since(start)}
	tr.end(root, nil)
	if err != nil {
		return op, err
	}
	if tr != nil {
		end := tr.now()
		op.class, op.stmts = make(map[string]time.Duration), len(marks)
		if len(marks) > 0 {
			tr.add(root, "exec.load", tr.startOf(root), marks[0].at, nil)
			op.class["load"] = time.Duration(marks[0].at - tr.startOf(root))
		}
		for i, m := range marks {
			class := classify(m.sql)
			if class == "" {
				return op, fmt.Errorf("statement %d of the mine fits no class: %.40q", i+1, m.sql)
			}
			next := end
			if i+1 < len(marks) {
				next = marks[i+1].at
			}
			tr.add(root, "exec."+class, m.at, next, nil)
			op.class[class] += time.Duration(next - m.at)
		}
	}
	if got := digestCounts(res.Counts); got != e.ref {
		return op, fmt.Errorf("digest %016x, reference %016x", got, e.ref)
	}
	return op, nil
}

// probeTimes are the medians of a probe's alternating untraced and traced
// ops; their difference is the tracing overhead.
type probeTimes struct{ plain, traced float64 }

func (p probeTimes) overhead() float64 { return ratio(p.traced-p.plain, p.plain) }

// plainMineP50 is the median of n in-process MineAuto runs.
func plainMineP50(d *core.Dataset, opts core.Options, n int, tl *tally) float64 {
	var s samples
	for i := 0; i < n; i++ {
		start := time.Now()
		_, err := core.MineAuto(d, opts)
		s.add(time.Since(start))
		if err != nil {
			tl.note(err)
		}
	}
	return median(s)
}

// sqlProbe is the traced pass over the SQL path: alternating untraced and
// traced mines, a worker ladder, and the ratio to a native mine of the
// same data.
func sqlProbe(e *sqlEnv, tr *tracer, b budget, rep *report, tl *tally) probeTimes {
	var plain, traced, stmts samples
	class := make(map[string]*samples)
	for _, c := range stmtClasses {
		class[c] = new(samples)
	}
	b.run(func() {
		op, err := e.mine(nil, 0)
		tl.note(err)
		plain.add(op.wall)
		op, err = e.mine(tr, 0)
		tl.note(err)
		if err != nil {
			return
		}
		traced.add(op.wall)
		stmts = append(stmts, float64(op.stmts))
		for _, c := range stmtClasses {
			class[c].add(op.class[c])
		}
	})
	for _, c := range stmtClasses {
		rep.addMedian("exec."+c+"_ms", "ms", *class[c], 1e3)
	}
	rep.add("exec.stmts_per_mine", "count", median(stmts))

	batch := budget{b.seconds / 4, b.minOps}
	var one, all samples
	batch.run(func() {
		op, err := e.mine(nil, 1)
		tl.note(err)
		one.add(op.wall)
	})
	batch.run(func() {
		op, err := e.mine(nil, procs())
		tl.note(err)
		all.add(op.wall)
	})
	rep.addMedian("exec.sql_1w_s", "s", one, 1)
	rep.addMedian("exec.sql_nw_s", "s", all, 1)
	rep.add("exec.parallel_speedup", "ratio", ratio(median(one), median(all)))
	native := plainMineP50(e.d, core.Options{MinSupportFrac: e.minsup}, 2*b.minOps, tl)
	rep.add("exec.sql_native_ratio", "ratio", ratio(median(plain), native))
	return probeTimes{median(plain), median(traced)}
}

// figure4 is the paper's Figure-4 statement set as MineSQL issues it (k=2
// shown), the input the zero-allocation front end is tuned for.
var figure4 = []string{
	`SELECT s.item, COUNT(*) FROM sales s GROUP BY s.item HAVING COUNT(*) >= :minsupport`,
	`CREATE TABLE rp2 (trans_id INT, item1 INT, item2 INT)`,
	`INSERT INTO rp2 SELECT p.trans_id, p.item1, q.item FROM r1 p, sales q
	 WHERE q.trans_id = p.trans_id AND q.item > p.item1 ORDER BY p.trans_id, p.item1, q.item`,
	`CREATE TABLE c2 (item1 INT, item2 INT, cnt INT)`,
	`INSERT INTO c2 SELECT p.item1, p.item2, COUNT(*) FROM rp2 p
	 GROUP BY p.item1, p.item2 HAVING COUNT(*) >= :minsupport`,
	`CREATE TABLE r2 (trans_id INT, item1 INT, item2 INT)`,
	`INSERT INTO r2 SELECT p.trans_id, p.item1, p.item2 FROM rp2 p, c2 c
	 WHERE p.item1 = c.item1 AND p.item2 = c.item2 ORDER BY p.trans_id, p.item1, p.item2`,
	`SELECT item1, item2, cnt FROM c2 ORDER BY item1, item2`,
	`DROP TABLE IF EXISTS rp2`,
}

// parseProbe times the pooled parser over the nine Figure-4 statements.
func parseProbe(rep *report, tl *tally) {
	p := sqlparse.AcquireParser()
	defer sqlparse.ReleaseParser(p)
	bytes := 0
	for _, q := range figure4 {
		bytes += len(q)
	}
	pass := func() {
		for _, q := range figure4 {
			p.Reset(q)
			if _, err := p.ParseStatement(); err != nil {
				tl.note(fmt.Errorf("parse %q: %w", q, err))
			}
		}
	}
	pass() // fills the token slab and the arena
	const passes = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < passes; i++ {
		pass()
	}
	perPass := time.Since(start).Seconds() / passes
	runtime.ReadMemStats(&m1)
	rep.add("sqlparse.figure4_pass_us", "us", perPass*1e6)
	rep.add("sqlparse.mb_per_s", "MB/s", ratio(float64(bytes)/1e6, perPass))
	rep.add("sqlparse.allocs_per_pass", "count", float64(m1.Mallocs-m0.Mallocs)/passes)
}

var salesSchema = tuple.IntSchema("trans_id", "item")

// salesBatch is d's SALES relation as the column batch MineSQL loads.
func salesBatch(d *core.Dataset) *tuple.Batch {
	b := tuple.NewBatch(salesSchema)
	b.Grow(d.NumSalesRows())
	for _, r := range d.SalesRows() {
		b.Cols[0].I = append(b.Cols[0].I, r[0])
		b.Cols[1].I = append(b.Cols[1].I, r[1])
		b.BumpRow()
	}
	return b
}

// engineProbe times the engine front door on d: the SALES bulk load,
// Prepare on a text the AST cache has not seen against one it has, and the
// prepared C_1 query with its plan cached.
func engineProbe(d *core.Dataset, minsup float64, n int, rep *report, tl *tally) {
	batch := salesBatch(d)
	var load samples
	var db *engine.DB
	for i := 0; i < n; i++ {
		db = engine.New()
		start := time.Now()
		err := db.LoadTableBatch("sales", salesSchema, batch, []int{0, 1})
		load.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
	}
	rep.addMedian("engine.load_sales_ms", "ms", load, 1e3)

	c1 := figure4[0]
	var cold, warm, exec samples
	var st *engine.Stmt
	for i := 0; i < 10*n; i++ {
		// A trailing comment makes a text the process-wide AST cache has
		// not seen, so this Prepare parses; the bare text is a cache hit.
		text := fmt.Sprintf("%s -- %d", c1, time.Now().UnixNano())
		start := time.Now()
		_, err := db.Prepare(text)
		cold.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
		start = time.Now()
		st, err = db.Prepare(c1)
		warm.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
	}
	rep.addMedian("engine.prepare_cold_us", "us", cold, 1e6)
	rep.addMedian("engine.prepare_warm_us", "us", warm, 1e6)
	bind := map[string]int64{"minsupport": core.Options{MinSupportFrac: minsup}.ResolveMinSupport(d.NumTransactions())}
	for i := 0; i <= 2*n; i++ {
		start := time.Now()
		_, err := st.Exec(bind)
		if i > 0 { // the first Exec compiles the plan
			exec.add(time.Since(start))
		}
		if err != nil {
			tl.note(err)
			return
		}
	}
	rep.addMedian("engine.prepared_c1_ms", "ms", exec, 1e3)
}

// heapProbe times the heap file (and through it the tuple codec) on a
// SALES-shaped batch: AppendBatch in, Scanner.NextBatch out.
func heapProbe(d *core.Dataset, n int, rep *report, tl *tally) {
	batch := salesBatch(d)
	rows := float64(batch.Len())
	var app, scan samples
	for i := 0; i < n; i++ {
		pool := storage.NewPool(storage.NewMemStore(), engine.DefaultPoolFrames)
		f, err := heap.Create(pool, salesSchema)
		if err != nil {
			tl.note(err)
			return
		}
		start := time.Now()
		err = f.AppendBatch(batch)
		app.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
		out := tuple.NewBatch(salesSchema)
		got := 0
		start = time.Now()
		sc := f.Scan()
		for {
			out.Reset()
			k, err := sc.NextBatch(out, 1024)
			got += k
			if err == io.EOF {
				break
			}
			if err != nil {
				tl.note(err)
				return
			}
		}
		sc.Close()
		scan.add(time.Since(start))
		if got != batch.Len() {
			tl.note(fmt.Errorf("heap probe: scanned %d of %d rows", got, batch.Len()))
		}
	}
	rep.add("heap.append_mrows_per_s", "Mrows/s", ratio(rows/1e6, median(app)))
	rep.add("heap.scan_mrows_per_s", "Mrows/s", ratio(rows/1e6, median(scan)))
}

// rulesProbe times Section 5 rule generation, both implementations, on a
// mining result.
func rulesProbe(res *core.Result, n int, rep *report, tl *tally) {
	var gen, sql samples
	count := 0
	for i := 0; i < n; i++ {
		start := time.Now()
		rs, err := rules.Generate(res, rules.Options{MinConfidence: 0.7})
		gen.add(time.Since(start))
		if err != nil {
			tl.note(err)
			return
		}
		start = time.Now()
		rq, err := rules.GenerateSQL(res, 0.7)
		sql.add(time.Since(start))
		if err == nil && len(rq) != len(rs) {
			err = fmt.Errorf("rules probe: Generate found %d rules, GenerateSQL %d", len(rs), len(rq))
		}
		if err != nil {
			tl.note(err)
			return
		}
		count = len(rs)
	}
	rep.addMedian("rules.generate_ms", "ms", gen, 1e3)
	rep.addMedian("rules.generate_sql_ms", "ms", sql, 1e3)
	rep.add("rules.count", "count", float64(count))
}
