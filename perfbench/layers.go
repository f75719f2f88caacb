package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	sgb "github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/snapshot"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
	"github.com/sgb-db/sgb/internal/wire"
)

// The traced run. It times calls into each module's public functions
// from the benchmark's own code — one span per call, carrying the
// statement's request id — and derives the per-layer metrics from the
// spans. The engine itself is not instrumented.

const (
	// probeReps is how many times each statement probe repeats.
	probeReps = 2
	// probeWrites is the number of solo INSERT and of solo DELETE
	// statements the session probe issues.
	probeWrites = 8
	// incrRounds is the number of append / result / remove rounds of the
	// incremental-evaluator probe, per semantics.
	incrRounds = 16
	// walRecords is the number of records appended per sync policy.
	walRecords = 32
)

// prober carries the traced run's state.
type prober struct {
	cfg  config
	b    *bench
	data *dataset
	tr   *tracer
	req  int64
	// want is the answer each SELECT must give (nil for serve-mixed,
	// whose answers move with its writes).
	want func(sel int) *sgb.Rows
	res  *result

	// stats sums the operator counters of the traced decompositions.
	stats    core.Stats
	requests int
	rows     int
	payload  int
	// overhead pairs the traced and untraced decomposition times.
	tracedNS, untracedNS []float64
}

func (p *prober) nextReq() int64 {
	p.req++
	return p.req
}

// span times fn as one span.
func (p *prober) span(name string, parent int, req int64, fn func() error) error {
	id := p.tr.begin(name, parent, req)
	err := fn()
	p.tr.end(id)
	return err
}

// traced is the --trace 1 run: the workload's closed loop with one span
// per statement, then solo probes of every layer.
func traced(cfg config) (*result, error) {
	w := cfg.w
	res := &result{}
	data := generate(cfg.seed)
	b, _, err := setUp(w, data, cfg.root, 1)
	if err != nil {
		return nil, err
	}
	defer b.close()
	want, problems, err := references(b)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, problems...)
	p := &prober{cfg: cfg, b: b, data: data, tr: newTracer(), want: want, res: res}
	p.req = 1 << 40 // above the loop's request ids

	streams := make([]*stream, w.conns)
	for c := range streams {
		streams[c] = newStream(w, data, c, cfg.seed)
	}
	loop := b.runLoop(time.Duration(cfg.seconds)*time.Second, streams, want, p.tr)
	res.problems = append(res.problems, loop.mismatches...)
	res.Attempted, res.Failed = loop.attempted, loop.failed
	gcs := float64(loop.memAfter.NumGC - loop.memBefore.NumGC)
	pause := float64(loop.memAfter.PauseTotalNs-loop.memBefore.PauseTotalNs) / 1e6
	res.set("go.gc_cycles_per_kop", perKop(gcs, loop.attempted), "count")
	res.set("go.gc_pause_ms_per_kop", perKop(pause, loop.attempted), "ms")

	steps := []struct {
		name string
		fn   func() error
	}{
		{"statements", p.statements},
		{"core classes", p.coreClasses},
		{"incr", p.incremental},
		{"wal", func() error { return p.wal(streams[0]) }},
		{"checkpoint", p.checkpoint},
		{"session", func() error { return p.session(streams[0]) }},
		{"restart", p.restart},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	p.report()
	path := filepath.Join(buildDir, "trace-"+w.name+".jsonl")
	if err := p.tr.write(path); err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s", len(p.tr.snapshot()), path)
	return res, nil
}

// statements decomposes every SELECT of the workload into its layer
// calls (twice per repetition: traced and untraced, alternating which
// goes first), reruns its grouping sequentially, and times it solo
// in-process and over the wire.
func (p *prober) statements() error {
	sess, err := p.b.session()
	if err != nil {
		return err
	}
	for rep := 0; rep < probeReps; rep++ {
		for i, q := range p.b.w.selects {
			for _, on := range [][2]bool{{true, false}, {false, true}}[rep%2] {
				runtime.GC() // no garbage of the previous statement in either twin
				if err := p.decompose(i, q, on); err != nil {
					return err
				}
			}
			req := p.nextReq()
			tbl, err := p.b.db.Catalog().Lookup(q.table)
			if err != nil {
				return err
			}
			if err := p.span("storage.snapshot", 0, req, func() error {
				rows, _ := tbl.Snapshot()
				p.rows += len(rows)
				return nil
			}); err != nil {
				return err
			}
			if err := p.span("wire.session", 0, req, func() error {
				_, _, err := sess.Run(q.sql)
				return err
			}); err != nil {
				return err
			}
			if err := p.span("wire.roundtrip", 0, req, func() error {
				_, _, err := p.b.conns[0].Run(q.sql)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// decompose runs one SELECT through parse → build → execute (with the
// grouping as a child span of execute) → wire encode → wire decode.
// With traced false the tracer is off and only the total is timed, for
// the tracing-overhead comparison.
func (p *prober) decompose(sel int, q query, traced bool) error {
	tr := p.tr
	if !traced {
		tr = &tracer{}
	}
	req := p.nextReq()
	var st core.Stats
	var points *geom.PointSet
	var opt core.Options
	var execSpan int

	t0 := time.Now()
	root := tr.begin("request", 0, req)
	sp := tr.begin("sqlparser.parse", root, req)
	stmt, err := sqlparser.Parse(q.sql)
	tr.end(sp)
	if err != nil {
		return err
	}
	selStmt, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return fmt.Errorf("%s is not a SELECT", q.sql)
	}
	sp = tr.begin("plan.build", root, req)
	bld := plan.NewBuilder(p.b.db.Catalog())
	bld.SGBStats = &st
	// The hooks run the same one-shot core entry points the executor
	// calls without them, inside a span of their own.
	bld.SGBIncr = func(_, _ string, anySem bool, o core.Options) exec.GroupFunc {
		return func(ps *geom.PointSet, _ int64) (*core.Result, error) {
			points, opt = ps, o
			id := tr.begin("core.group", execSpan, req)
			defer tr.end(id)
			if anySem {
				return core.SGBAnySet(ps, o)
			}
			return core.SGBAllSet(ps, o)
		}
	}
	bld.SGBSweep = func(_, _ string, epsList []float64, o core.Options) exec.SweepFunc {
		return func(ps *geom.PointSet, _ int64) ([]*core.Result, error) {
			points, opt = ps, o
			id := tr.begin("core.group", execSpan, req)
			defer tr.end(id)
			return core.SweepAnySet(ps, epsList, o)
		}
	}
	cq, err := bld.BuildSelect(selStmt)
	tr.end(sp)
	if err != nil {
		return err
	}
	execSpan = tr.begin("exec.execute", root, req)
	rows, err := plan.Execute(cq)
	tr.end(execSpan)
	if err != nil {
		return err
	}
	sp = tr.begin("wire.encode", root, req)
	payload := wire.EncodeRows(cq.Columns, rows)
	tr.end(sp)
	sp = tr.begin("wire.decode", root, req)
	resp, err := wire.DecodeResponse(payload)
	tr.end(sp)
	tr.end(root)
	total := time.Since(t0)
	if err != nil {
		return err
	}
	if p.want != nil && !sameRows(&sgb.Rows{Columns: resp.Columns, Data: resp.Data}, p.want(sel)) {
		p.res.problems = append(p.res.problems, fmt.Sprintf("decomposed %s differs from the reference", q.name()))
	}
	if !traced {
		p.untracedNS = append(p.untracedNS, float64(total))
		return nil
	}
	p.tracedNS = append(p.tracedNS, float64(total))
	p.stats.Merge(&st)
	p.requests++
	p.payload += len(payload)
	if points == nil {
		return fmt.Errorf("%s did not reach the grouping hook", q.name())
	}
	seq := opt
	seq.Parallelism, seq.Stats = 1, nil
	return p.span("core.group_seq", 0, req, func() error {
		return q.class.group(points, seq)
	})
}

// coreClasses times every adhoc query class's core entry point
// directly on both generated tables at the default options.
func (p *prober) coreClasses() error {
	for _, t := range []string{"dense", "clustered"} {
		ps := points(p.data.tables[t])
		for rep := 0; rep < probeReps; rep++ {
			for _, c := range adhocClasses {
				if err := p.span("core.group."+t+"."+c.name, 0, p.nextReq(), func() error {
					return c.group(ps, c.coreOptions(0))
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// incremental probes a benchmark-owned incremental evaluator of each
// semantics over the clustered table: append a writeBatch-point batch,
// read the result, remove one point.
func (p *prober) incremental() error {
	base := points(p.data.tables["clustered"])
	r := rand.New(rand.NewSource(p.cfg.seed))
	for _, sem := range []incr.Semantics{incr.All, incr.Any} {
		x, err := incr.New(sem, allL2JoinAny.coreOptions(0))
		if err != nil {
			return err
		}
		if err := x.AppendSet(base); err != nil {
			return err
		}
		for i := 0; i < incrRounds; i++ {
			batch := geom.NewPointSet(2)
			for j := 0; j < writeBatch; j++ {
				pt := batch.Extend()
				pt[0], pt[1] = r.Float64()*p.data.clusteredSpan, r.Float64()*p.data.clusteredSpan
			}
			req := p.nextReq()
			if err := p.span("incr.append", 0, req, func() error { return x.AppendSet(batch) }); err != nil {
				return err
			}
			if err := p.span("incr.result", 0, req, func() error {
				_, err := x.Result()
				return err
			}); err != nil {
				return err
			}
			victim := r.Intn(x.Len())
			if err := p.span("incr.remove", 0, req, func() error { return x.Remove([]int{victim}) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// wal appends the workload's own records to a benchmark-owned log,
// once fsyncing every append and once never: serve-mixed's
// writeBatch-row inserts and single-row deletes, or the load batches of
// the read-only workloads.
func (p *prober) wal(st *stream) error {
	var recs []wal.Record
	rows := 0
	for len(recs) < walRecords {
		if p.b.w.mixed {
			recs = append(recs, walInsert("clustered", st.insertRows()), wal.Delete{Table: "clustered", Idx: []int{st.r.Intn(tableRows)}})
			rows += writeBatch + 1
			continue
		}
		for _, t := range p.b.w.tables {
			src := p.data.tables[t]
			lo := (len(recs) * loadBatch) % len(src)
			recs = append(recs, walInsert(t, src[lo:lo+loadBatch]))
			rows += loadBatch
		}
	}
	var bytes int64
	for _, pol := range []struct {
		span   string
		policy wal.SyncPolicy
	}{{"wal.append", wal.SyncAlways}, {"wal.append_nosync", wal.SyncOff}} {
		dir := filepath.Join(p.cfg.root, "wal-"+pol.span)
		l, err := wal.Open(dir, wal.Options{Policy: pol.policy})
		if err != nil {
			return err
		}
		_, off0 := l.Position()
		for _, rec := range recs {
			if err := p.span(pol.span, 0, p.nextReq(), func() error {
				_, err := l.Append(rec)
				return err
			}); err != nil {
				return errors.Join(err, l.Close())
			}
		}
		_, off1 := l.Position()
		bytes = off1 - off0
		if err := l.Close(); err != nil {
			return err
		}
	}
	p.res.set("wal.bytes_per_row", float64(bytes)/float64(rows), "B")
	return nil
}

// walInsert is the log record of an INSERT of the rows, as the engine
// logs it: the stored (id INT, x, y, w FLOAT) values.
func walInsert(table string, rows []row) wal.Insert {
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = types.Row{types.Int(r.id), types.Float(r.x), types.Float(r.y), types.Float(r.w)}
	}
	return wal.Insert{Table: table, Rows: out}
}

// checkpoint times CHECKPOINT statements on the workload's database and
// measures the snapshot they write.
func (p *prober) checkpoint() error {
	sess, err := p.b.session()
	if err != nil {
		return err
	}
	for i := 0; i < probeReps+1; i++ {
		if err := p.span("durable.checkpoint", 0, p.nextReq(), func() error {
			_, err := sess.Exec("CHECKPOINT")
			return err
		}); err != nil {
			return err
		}
	}
	snaps, err := snapshot.List(p.b.dir)
	if err != nil {
		return err
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no snapshot in %s", p.b.dir)
	}
	fi, err := os.Stat(snaps[len(snaps)-1].Path)
	if err != nil {
		return err
	}
	p.res.set("snapshot.kb", float64(fi.Size())/1024, "KiB")
	return nil
}

// session replays the workload's own statements solo on an in-process
// session — serve-mixed's mixed cycles, or the read-only workloads'
// first 2 × len(selects) SELECTs followed by probeWrites INSERTs and
// DELETEs — and
// counts the evaluator-cache distance computations each one causes.
// The writes are logged after the last checkpoint, so the restart probe
// replays them.
func (p *prober) session(st *stream) error {
	sess, err := p.b.session()
	if err != nil {
		return err
	}
	var stmts []stmt
	if p.b.w.mixed {
		for i := 0; i < probeWrites*10; i++ {
			stmts = append(stmts, st.next(i))
		}
	} else {
		for i := 0; i < 2*len(p.b.w.selects); i++ {
			stmts = append(stmts, st.next(i))
		}
		for i := 0; i < probeWrites; i++ {
			stmts = append(stmts, st.insert(), st.delete())
		}
	}
	var count [numKinds]int
	var dist [numKinds]int64
	for _, s := range stmts {
		before := p.b.db.CacheStats().DistanceComputations
		var n int
		if err := p.span("session."+s.kind.String(), 0, p.nextReq(), func() error {
			var err error
			_, n, err = sess.Run(s.sql)
			return err
		}); err != nil {
			return err
		}
		if s.kind != kindSelect && n != s.count {
			p.res.problems = append(p.res.problems, fmt.Sprintf("solo %s affected %d rows, want %d", s.kind, n, s.count))
		}
		count[s.kind]++
		dist[s.kind] += p.b.db.CacheStats().DistanceComputations - before
	}
	p.res.set("cache.distance_per_select", float64(dist[kindSelect])/float64(count[kindSelect]), "count")
	writes := count[kindInsert] + count[kindDelete]
	p.res.set("cache.distance_per_write", float64(dist[kindInsert]+dist[kindDelete])/float64(writes), "count")
	return nil
}

// restart closes the workload's database and reopens it as the
// untraced run does, with spans around the open and the first SELECT.
func (p *prober) restart() error {
	sess, err := p.b.session()
	if err != nil {
		return err
	}
	want, err := sess.Query(p.b.w.selects[0].sql)
	if err != nil {
		return err
	}
	rows, err := p.b.rowCounts()
	if err != nil {
		return err
	}
	if err := p.b.close(); err != nil {
		return err
	}
	restarts, problems := measureRestarts(p.b.w, p.b.dir, want, rows, p.tr)
	p.res.problems = append(p.res.problems, problems...)
	if len(restarts) == 0 {
		return fmt.Errorf("no restart completed: %v", problems)
	}
	p.res.set("durable.records_replayed", float64(restarts[0].info.RecordsReplayed), "count")
	p.res.set("durable.evaluators_restored", float64(restarts[0].info.EvaluatorsRestored), "count")
	return nil
}

// report derives the per-layer metrics from the spans and counters.
func (p *prober) report() {
	st := summarize(p.tr.snapshot())
	r := p.res
	msOf := func(name string) float64 { return ms(st.meanDur(name)) }
	usOf := func(name string) float64 { return us(st.meanDur(name)) }
	perReq := func(v int64) float64 { return float64(v) / float64(p.requests) }

	group, seq := msOf("core.group"), msOf("core.group_seq")
	r.set("core.group_ms", group, "ms")
	r.set("core.group_seq_ms", seq, "ms")
	r.set("core.auto_over_seq", group/seq, "ratio")
	r.set("core.distance_computations", perReq(p.stats.DistanceComputations), "count")
	r.set("core.rect_tests", perReq(p.stats.RectTests), "count")
	r.set("core.hull_tests", perReq(p.stats.HullTests), "count")
	r.set("core.index_probes", perReq(p.stats.IndexProbes), "count")
	r.set("core.groups_created", perReq(p.stats.GroupsCreated), "count")
	r.set("core.group_merges", perReq(p.stats.GroupMerges), "count")
	r.set("core.recursion_depth", float64(p.stats.RecursionDepth), "count")
	r.set("core.partition_ms", perReq(p.stats.PartitionNanos)/1e6, "ms")
	r.set("core.connect_ms", perReq(p.stats.ConnectNanos)/1e6, "ms")
	r.set("core.arbitrate_ms", perReq(p.stats.ArbitrateNanos)/1e6, "ms")
	r.set("core.merge_ms", perReq(p.stats.MergeNanos)/1e6, "ms")
	for _, t := range []string{"dense", "clustered"} {
		for _, c := range adhocClasses {
			name := "core.group." + t + "." + c.name
			r.set("core.group_ms."+t+"."+c.name, msOf(name), "ms")
		}
	}

	r.set("exec.execute_ms", msOf("exec.execute"), "ms")
	r.set("exec.self_ms", ms(st.meanSelf("exec.execute")), "ms")
	r.set("storage.snapshot_us", usOf("storage.snapshot"), "us")
	r.set("storage.rows_scanned", float64(p.rows)/float64(len(st.dur["storage.snapshot"])), "count")

	r.set("incr.append_us", usOf("incr.append"), "us")
	r.set("incr.result_us", usOf("incr.result"), "us")
	r.set("incr.remove_ms", msOf("incr.remove"), "ms")

	r.set("sqlparser.parse_us", usOf("sqlparser.parse"), "us")
	r.set("plan.build_us", usOf("plan.build"), "us")

	r.set("wire.overhead_ms", msOf("wire.roundtrip")-msOf("wire.session"), "ms")
	r.set("wire.encode_us", usOf("wire.encode"), "us")
	r.set("wire.decode_us", usOf("wire.decode"), "us")
	r.set("wire.response_kb", float64(p.payload)/1024/float64(p.requests), "KiB")

	r.set("session.select_ms", msOf("session.select"), "ms")
	r.set("session.insert_ms", msOf("session.insert"), "ms")
	r.set("session.delete_ms", msOf("session.delete"), "ms")

	r.set("wal.append_us", usOf("wal.append"), "us")
	r.set("wal.append_nosync_us", usOf("wal.append_nosync"), "us")

	r.set("durable.checkpoint_ms", msOf("durable.checkpoint"), "ms")
	r.set("durable.open_ms", msOf("durable.open"), "ms")
	r.set("durable.first_select_ms", msOf("durable.first_select"), "ms")

	r.set("trace.overhead_pct", overheadPct(p.tracedNS, p.untracedNS), "%")
	r.notef("tracing overhead: decomposed statements took %.3f ms traced, %.3f ms untraced on average (%d pairs)",
		mean(p.tracedNS)/1e6, mean(p.untracedNS)/1e6, len(p.tracedNS))
}
