package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	sgb "github.com/sgb-db/sgb"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/sgbclient"
	"github.com/sgb-db/sgb/sgbserver"
)

// workload is one named traffic mix. Every workload runs on a durable
// database (sgb.OpenDir) with the default durability = always and
// checkpoint_every = 1024, served over the wire protocol to a closed
// loop of conns connections from this process.
type workload struct {
	name  string
	conns int
	// settings are the SET statements every session of the workload runs.
	settings []string
	tables   []string
	// selects are the workload's distinct SELECTs.
	selects []query
	// mix lists the SELECTs of one statement cycle (indices into
	// selects, repeats weigh a query up). Its length is 5 mod 10 (or,
	// for mixed, 8 beside the cycle's two writes), so that p50 and p90
	// of a run made of whole cycles fall in the middle of one slot of
	// the sorted mix, never on the border between two statement classes
	// — where a percentile would read the noisy extreme of one class.
	mix []int
	// mixed interleaves writes: of every cycle of 10 statements, 8 are
	// SELECTs, one is a writeBatch-row INSERT with fresh ids and one is
	// a single-row DELETE of a preloaded id.
	mixed bool
}

var workloads = []workload{
	{
		name:    "adhoc",
		conns:   1,
		tables:  []string{"dense", "clustered"},
		selects: adhocQueries(),
		// Every class on dense once and on clustered twice: 15 slots.
		mix: []int{0, 1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9},
	},
	{
		name:     "serve-read",
		conns:    2,
		settings: []string{"SET incremental = on"},
		tables:   []string{"dense", "clustered"},
		selects: []query{
			newQuery("dense", allL2JoinAny),
			newQuery("dense", anyL2),
			newQuery("clustered", allL2JoinAny),
			newQuery("clustered", anyL2),
			newQuery("clustered", cube),
		},
		mix: []int{0, 1, 2, 3, 4},
	},
	{
		name:     "serve-mixed",
		conns:    2,
		settings: []string{"SET incremental = on"},
		tables:   []string{"clustered"},
		selects:  []query{newQuery("clustered", anyL2), newQuery("clustered", allL2JoinAny)},
		// 5 SGB-Any and 3 SGB-All per 8 SELECTs.
		mix:   []int{0, 0, 0, 0, 0, 1, 1, 1},
		mixed: true,
	},
}

func adhocQueries() []query {
	var qs []query
	for _, t := range []string{"dense", "clustered"} {
		for _, c := range adhocClasses {
			qs = append(qs, newQuery(t, c))
		}
	}
	return qs
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cycle is the number of statements in one cycle of a connection's
// stream; timed phases stop only at cycle boundaries, so every run
// weighs the statement classes exactly as the mix does.
func (w *workload) cycle() int {
	if w.mixed {
		return len(w.mix) + 2
	}
	return len(w.mix)
}

type stmtKind int

const (
	kindSelect stmtKind = iota
	kindInsert
	kindDelete
	numKinds
)

func (k stmtKind) String() string {
	return [...]string{"select", "insert", "delete"}[k]
}

// stmt is one statement of a connection's stream.
type stmt struct {
	kind stmtKind
	sql  string
	// sel indexes workload.selects for a SELECT.
	sel int
	// count is the affected-row count a write must report.
	count int
}

// stream generates one connection's statements deterministically from
// the run seed. Each cycle issues the workload's mix in a fresh seeded
// order, so that two connections do not lock into one interleaving for
// a whole run.
type stream struct {
	w      *workload
	r      *rand.Rand
	span   float64
	nextID int64
	// doomed are the preloaded clustered ids this connection deletes, in
	// order; the connections' slices are disjoint.
	doomed []int64
	// order is the current cycle's statements: indices into w.selects,
	// or slotInsert / slotDelete.
	order []int
}

const (
	slotInsert = -1
	slotDelete = -2
)

func newStream(w *workload, data *dataset, conn int, seed int64) *stream {
	s := &stream{
		w:      w,
		r:      rand.New(rand.NewSource(seed*1_000_003 + int64(conn))),
		span:   data.clusteredSpan,
		nextID: freshIDBase + int64(conn)*idStride,
	}
	per := tableRows / w.conns
	for _, i := range s.r.Perm(per) {
		s.doomed = append(s.doomed, int64(conn*per+i))
	}
	return s
}

// next returns the i-th statement of the stream (i counts from 0 and
// must advance by one per call).
func (s *stream) next(i int) stmt {
	cyc := s.w.cycle()
	if i%cyc == 0 {
		s.order = append(s.order[:0], s.w.mix...)
		if s.w.mixed {
			s.order = append(s.order, slotInsert, slotDelete)
		}
		s.r.Shuffle(len(s.order), func(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] })
	}
	switch k := s.order[i%cyc]; k {
	case slotInsert:
		return s.insert()
	case slotDelete:
		return s.delete()
	default:
		return stmt{kind: kindSelect, sql: s.w.selects[k].sql, sel: k}
	}
}

func (s *stream) insert() stmt {
	return stmt{kind: kindInsert, sql: insertSQL("clustered", s.insertRows()), sel: -1, count: writeBatch}
}

// insertRows draws the next INSERT's rows: fresh ids, uniform points
// on the clustered table's domain.
func (s *stream) insertRows() []row {
	rows := make([]row, writeBatch)
	for j := range rows {
		rows[j] = row{id: s.nextID, x: s.r.Float64() * s.span, y: s.r.Float64() * s.span, w: s.r.Float64() * 100}
		s.nextID++
	}
	return rows
}

func (s *stream) delete() stmt {
	id := s.doomed[0]
	s.doomed = s.doomed[1:]
	return stmt{kind: kindDelete, sql: fmt.Sprintf("DELETE FROM clustered WHERE id = %d", id), sel: -1, count: 1}
}

// bench is one loaded, served, warmed database of a workload.
type bench struct {
	w        *workload
	dir      string
	db       *sgb.DB
	srv      *sgbserver.Server
	serveErr chan error
	conns    []*sgbclient.Conn
	// warm holds the warm-up answer of every select.
	warm []*sgb.Rows
}

// openBench is the workload's set-up phase: create a durable database
// in dir, load the workload's tables, serve it, connect and configure
// the workload's connections, issue every SELECT once (building the
// cached evaluators of the incremental workloads) and checkpoint.
func openBench(w *workload, data *dataset, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := sgb.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, dir: dir, db: db}
	if err := b.load(data); err != nil {
		b.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv = sgbserver.New(db)
	b.serveErr = make(chan error, 1)
	go func() { b.serveErr <- b.srv.Serve(ln) }()
	for c := 0; c < w.conns; c++ {
		conn, err := sgbclient.Dial(ln.Addr().String())
		if err != nil {
			b.close()
			return nil, err
		}
		b.conns = append(b.conns, conn)
		for _, set := range w.settings {
			if _, err := conn.Exec(set); err != nil {
				b.close()
				return nil, fmt.Errorf("%s: %w", set, err)
			}
		}
	}
	for _, q := range w.selects {
		rows, err := b.conns[0].Query(q.sql)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warming %s: %w", q.name(), err)
		}
		b.warm = append(b.warm, rows)
	}
	if _, err := b.conns[0].Exec("CHECKPOINT"); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// rowCounts returns the row count of every table of the workload.
func (b *bench) rowCounts() (map[string]int, error) {
	out := map[string]int{}
	for _, t := range b.w.tables {
		n, err := b.db.TableLen(t)
		if err != nil {
			return nil, err
		}
		out[t] = n
	}
	return out, nil
}

func (b *bench) load(data *dataset) error {
	for _, set := range []string{
		"SET durability = " + durabilityPolicy,
		fmt.Sprintf("SET checkpoint_every = %d", checkpointEvery),
	} {
		if _, err := b.db.Exec(set); err != nil {
			return fmt.Errorf("%s: %w", set, err)
		}
	}
	for _, t := range b.w.tables {
		if _, err := b.db.Exec(createSQL(t)); err != nil {
			return err
		}
		rows := data.tables[t]
		for lo := 0; lo < len(rows); lo += loadBatch {
			hi := lo + loadBatch
			if hi > len(rows) {
				hi = len(rows)
			}
			if _, err := b.db.Exec(insertSQL(t, rows[lo:hi])); err != nil {
				return fmt.Errorf("loading %s: %w", t, err)
			}
		}
	}
	return nil
}

// session opens an in-process session with the workload's settings.
func (b *bench) session() (*sgb.Session, error) { return configure(b.db, b.w.settings) }

func configure(db *sgb.DB, settings []string) (*sgb.Session, error) {
	s := db.NewSession()
	for _, set := range settings {
		if _, err := s.Exec(set); err != nil {
			return nil, fmt.Errorf("%s: %w", set, err)
		}
	}
	return s, nil
}

// close disconnects the clients, stops the server and closes the
// database, returning the first error.
func (b *bench) close() error {
	var first error
	for _, c := range b.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.conns = nil
	if b.srv != nil {
		b.srv.Shutdown()
		if err := <-b.serveErr; !errors.Is(err, sgbserver.ErrClosed) && first == nil {
			first = err
		}
		b.srv = nil
	}
	if err := b.db.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// sameRows reports whether two answers are identical value for value,
// float bits included — exactly what the wire encoding of the answer
// captures.
func sameRows(a, b *sgb.Rows) bool {
	if a == nil || b == nil || len(a.Columns) != len(b.Columns) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i, ra := range a.Data {
		rb := b.Data[i]
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if !sameValue(ra[j], rb[j]) {
				return false
			}
		}
	}
	return true
}

func sameValue(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.B == b.B
}

// loopResult is what a timed closed loop observed.
type loopResult struct {
	// lat holds each statement kind's latencies; a failed statement is
	// recorded as failedLatency.
	lat [numKinds][]time.Duration
	// bySel holds the latencies of each select (index into selects).
	bySel               map[int][]time.Duration
	attempted, failed   int
	inserted, deleted   int
	mismatches          []string
	wall                time.Duration
	memBefore, memAfter runtime.MemStats
	cacheDistanceDelta  int64
	streams             []*stream
}

// runLoop drives the workload's closed loop for the given duration:
// each connection sends its next statement when the previous answer
// has been decoded, and stops at the first cycle boundary past the
// deadline. want, when non-nil, returns the answer a SELECT must equal.
// With a tracer, every statement is recorded as one span.
func (b *bench) runLoop(d time.Duration, streams []*stream, want func(sel int) *sgb.Rows, tr *tracer) *loopResult {
	res := &loopResult{streams: streams, bySel: map[int][]time.Duration{}}
	type connOut struct {
		lat               [numKinds][]time.Duration
		bySel             map[int][]time.Duration
		attempted, failed int
		inserted, deleted int
		mismatches        []string
	}
	outs := make([]connOut, len(b.conns))
	cyc := b.w.cycle()
	cacheBefore := b.db.CacheStats().DistanceComputations
	runtime.GC()
	runtime.ReadMemStats(&res.memBefore)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range b.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			conn, st := b.conns[c], streams[c]
			for i := 0; i%cyc != 0 || time.Now().Before(deadline); i++ {
				s := st.next(i)
				var span int
				if tr != nil {
					span = tr.begin("client."+s.kind.String(), 0, int64(c)<<32|int64(i))
				}
				t0 := time.Now()
				rows, n, err := conn.Run(s.sql)
				lat := time.Since(t0)
				if tr != nil {
					tr.end(span)
				}
				o.attempted++
				ok := err == nil
				switch {
				case err != nil:
					o.mismatches = append(o.mismatches, fmt.Sprintf("conn %d statement %d: %v", c, i, err))
				case s.kind == kindSelect && want != nil && !sameRows(rows, want(s.sel)):
					ok = false
					o.mismatches = append(o.mismatches, fmt.Sprintf("conn %d statement %d: answer differs from the reference: %s", c, i, s.sql))
				case s.kind != kindSelect && n != s.count:
					ok = false
					o.mismatches = append(o.mismatches, fmt.Sprintf("conn %d statement %d: %d rows affected, want %d", c, i, n, s.count))
				}
				if !ok {
					o.failed++
					lat = failedLatency
				} else if s.kind == kindInsert {
					o.inserted += n
				} else if s.kind == kindDelete {
					o.deleted += n
				}
				o.lat[s.kind] = append(o.lat[s.kind], lat)
				if s.kind == kindSelect {
					if o.bySel == nil {
						o.bySel = map[int][]time.Duration{}
					}
					o.bySel[s.sel] = append(o.bySel[s.sel], lat)
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&res.memAfter)
	res.cacheDistanceDelta = b.db.CacheStats().DistanceComputations - cacheBefore
	for _, o := range outs {
		for k := range o.lat {
			res.lat[k] = append(res.lat[k], o.lat[k]...)
		}
		for k, v := range o.bySel {
			res.bySel[k] = append(res.bySel[k], v...)
		}
		res.attempted += o.attempted
		res.failed += o.failed
		res.inserted += o.inserted
		res.deleted += o.deleted
		res.mismatches = append(res.mismatches, o.mismatches...)
	}
	return res
}

// The restart measurement reopens the workload's directory at least
// restartCycles times and for at least restartSpan, so that a fast
// restart is sampled over as long a stretch of the machine's time as a
// slow one.
const (
	restartCycles = 21
	restartSpan   = 3 * time.Second
)

// restartResult is one reopen of a workload directory.
type restartResult struct {
	firstAnswer time.Duration
	info        sgb.RecoveryInfo
	rows        map[string]int
	answer      *sgb.Rows
}

// restart reopens the directory the workload left — recovery runs
// inside sgb.OpenDir — and answers the workload's first SELECT on a
// session with the workload's settings, timing both together. With a
// tracer it records the open and the SELECT as child spans of one
// restart span.
func restart(w *workload, dir string, tr *tracer, req int64) (*restartResult, error) {
	root, open := 0, 0
	if tr != nil {
		root = tr.begin("durable.restart", 0, req)
		open = tr.begin("durable.open", root, req)
	}
	t0 := time.Now()
	db, err := sgb.OpenDir(dir)
	if tr != nil {
		tr.end(open)
	}
	if err != nil {
		return nil, err
	}
	defer db.Close()
	s, err := configure(db, w.settings)
	if err != nil {
		return nil, err
	}
	first := 0
	if tr != nil {
		first = tr.begin("durable.first_select", root, req)
	}
	rows, err := s.Query(w.selects[0].sql)
	elapsed := time.Since(t0)
	if tr != nil {
		tr.end(first)
		tr.end(root)
	}
	if err != nil {
		return nil, err
	}
	res := &restartResult{firstAnswer: elapsed, info: db.Recovery(), rows: map[string]int{}, answer: rows}
	for _, t := range w.tables {
		n, err := db.TableLen(t)
		if err != nil {
			return nil, err
		}
		res.rows[t] = n
	}
	return res, nil
}

// measureRestarts runs the reopen cycles and checks that every one
// recovers the row counts the database closed with (wantRows), replays
// the same number of records and gives the first answer want.
func measureRestarts(w *workload, dir string, want *sgb.Rows, wantRows map[string]int, tr *tracer) ([]*restartResult, []string) {
	var out []*restartResult
	var problems []string
	start := time.Now()
	for i := 0; i < restartCycles || time.Since(start) < restartSpan; i++ {
		runtime.GC() // leave the previous cycle's garbage out of this one
		r, err := restart(w, dir, tr, int64(i))
		if err != nil {
			return out, append(problems, fmt.Sprintf("restart %d: %v", i, err))
		}
		if !sameRows(r.answer, want) {
			problems = append(problems, fmt.Sprintf("restart %d: first answer differs from the answer before the restart", i))
		}
		for t, n := range r.rows {
			if n != wantRows[t] {
				problems = append(problems, fmt.Sprintf("restart %d recovered %d rows of %s, the database closed with %d", i, n, t, wantRows[t]))
			}
		}
		if i > 0 {
			p := out[0]
			if r.info.RecordsReplayed != p.info.RecordsReplayed {
				problems = append(problems, fmt.Sprintf("restart %d replayed %d records, restart 0 replayed %d", i, r.info.RecordsReplayed, p.info.RecordsReplayed))
			}
		}
		out = append(out, r)
	}
	return out, problems
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median and the last one is measured.
const setupReps = 3

// setUp runs the set-up phase setupReps times in fresh directories
// under root, closing all but the last, and returns it with every
// set-up time.
func setUp(w *workload, data *dataset, root string, reps int) (*bench, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(root, fmt.Sprintf("db-%d", i))
		runtime.GC()
		t0 := time.Now()
		b, err := openBench(w, data, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		if i == reps-1 {
			return b, times, nil
		}
		if err := b.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}
