package sgb

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
	"github.com/sgb-db/sgb/internal/wal"
)

// Value is a SQL value produced by queries.
type Value = types.Value

// DB is an embedded in-memory SQL engine with the SGB-extended GROUP BY
// syntax. It plays the role of the paper's modified PostgreSQL: parser,
// planner, and executor all understand DISTANCE-TO-ALL / DISTANCE-TO-ANY
// grouping, and SET statements tune the similarity executor per
// session (SET algorithm = grid, SET parallelism = 4, SET seed = 1).
//
// A DB is safe for concurrent use. Open a Session per concurrent
// client (the wire server does this per connection) so SET state stays
// isolated; the DB-level Exec/Query methods share one default session.
// The concurrency discipline, bottom to top:
//
//   - Each table carries its own RWMutex; queries scan an immutable
//     snapshot captured in one coherent read (storage.Table.Snapshot),
//     so a long similarity grouping holds no lock while concurrent
//     statements mutate the table.
//   - wmu serializes mutation statements (INSERT, DELETE, CREATE,
//     DROP, CHECKPOINT, Close, and the durability SET knobs) so the
//     write-ahead log records mutations in exactly apply order.
//     Queries never take it.
//   - Cached incremental grouping state lives in a sharded singleflight
//     cache (see cache.go): sessions asking the same similarity
//     question over one table share a single maintained evaluator, and
//     concurrent cold misses coalesce into one build.
type DB struct {
	cat *storage.Catalog
	// wmu serializes mutation statements. Lock order: wmu, then a
	// table's lock, then cache shard locks, then an entry's lock —
	// always outermost first, never backwards.
	wmu sync.Mutex
	// cache holds the shared incremental grouping state for the SET
	// incremental maintenance path: a similarity group-by over a bare
	// table scan appends only the rows inserted since the previous
	// query instead of regrouping from scratch, and DELETE feeds the
	// deleted row ids to the cached evaluators' decremental Remove.
	// Entries are keyed by lower-cased table name plus a fingerprint of
	// the query's resolved grouping configuration, so distinct
	// similarity queries over one table maintain independent states
	// instead of evicting each other. The cache is bounded (SET
	// incr_cache_size), evicting the least recently used.
	cache *evalCache
	// def is the default session backing the DB-level Exec/Query API.
	def *Session
	// dur is non-nil for a persistent database (OpenDir): mutations
	// append to its write-ahead log and CHECKPOINT snapshots through
	// it. Guarded by wmu (queries never touch it).
	dur *durable
}

// Open creates an empty database. The default session uses the ε-grid
// strategy with automatic parallelism (workers = GOMAXPROCS on large
// inputs) and one-shot (non-incremental) grouping; see SET incremental.
func Open() *DB {
	db := &DB{
		cat:   storage.NewCatalog(),
		cache: newEvalCache(defaultIncrCacheCap),
	}
	db.def = db.NewSession()
	return db
}

// dropIncrEntries removes every cached grouping entry of the named
// table (lower-cased key space).
func (db *DB) dropIncrEntries(name string) {
	name = strings.ToLower(name)
	for _, it := range db.cache.items() {
		if it.key.table == name {
			db.cache.remove(it)
		}
	}
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    []types.Row
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// QueryOptions tunes similarity group-by execution for a single query.
type QueryOptions struct {
	// Algorithm selects the SGB strategy (the session default is
	// GridIndex, which supports any number of grouping attributes).
	Algorithm Algorithm
	// Parallelism is the SGB-Any pipeline's worker count: 0 picks
	// GOMAXPROCS on large inputs, 1 forces sequential evaluation, ≥ 2
	// forces that many workers. SGB-All always runs the sequential
	// arbitration loop. Results are identical at every setting.
	Parallelism int
	// Seed seeds ON-OVERLAP JOIN-ANY arbitration.
	Seed int64
	// Stats, when non-nil, accumulates SGB operator counters. On the
	// incremental single-ε maintenance path per-query counters are
	// ignored (cached state outlives any single query's counter block;
	// see DB.CacheStats for the shared counters); ε-sweep queries do
	// count their own appended work here.
	Stats *Stats
	// Incremental enables incremental group maintenance (SET
	// incremental = on): similarity group-by queries over a bare
	// single-table scan reuse cached grouping state — one entry per
	// (table, grouping configuration) — so a query after INSERTs
	// appends only the new rows. Results are identical to a
	// from-scratch evaluation.
	Incremental bool
}

// Exec runs a DDL/DML statement (CREATE TABLE, INSERT, DROP TABLE) or a
// query whose results are discarded, on the default session. It returns
// the number of affected (or returned) rows.
func (db *DB) Exec(sql string) (int, error) { return db.def.Exec(sql) }

// execCreate runs CREATE TABLE under the writer lock.
func (db *DB) execCreate(s *sqlparser.CreateTableStmt) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	schema := make(storage.Schema, len(s.Columns))
	cols := make([]wal.ColDef, len(s.Columns))
	for i, c := range s.Columns {
		schema[i] = storage.Column{Name: c.Name, Type: c.Type}
		cols[i] = wal.ColDef{Name: c.Name, Kind: c.Type}
	}
	if err := db.cat.Create(storage.NewTable(s.Name, schema)); err != nil {
		return err
	}
	return db.logRecordLocked(wal.CreateTable{Name: s.Name, Cols: cols})
}

// execDrop runs DROP TABLE under the writer lock.
func (db *DB) execDrop(s *sqlparser.DropTableStmt) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.cat.Drop(s.Name); err != nil {
		return err
	}
	// A re-created table of the same name must not inherit the old
	// table's grouping state (the entry's table-identity guard would
	// catch it too; dropping eagerly frees the memory now). In-flight
	// queries over the dropped table finish on their snapshots.
	db.dropIncrEntries(s.Name)
	return db.logRecordLocked(wal.DropTable{Name: s.Name})
}

// execInsert runs INSERT under the writer lock. The statement's rows
// are evaluated up front (stopping at the first bad row), then the
// valid prefix applies as one batch under the table's write lock — a
// concurrent snapshot observes either none or all of a batch's rows
// admitted before the first type error, never a torn statement.
func (db *DB) execInsert(s *sqlparser.InsertStmt) (int, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	t, err := db.cat.Lookup(s.Table)
	if err != nil {
		return 0, err
	}
	// Map the column list (defaults to table order).
	colIdx := make([]int, 0, len(t.Schema))
	if len(s.Columns) == 0 {
		for i := range t.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Columns {
			idx := t.Schema.ColumnIndex(name)
			if idx < 0 {
				return 0, fmt.Errorf("sgb: table %s has no column %q", t.Name, name)
			}
			colIdx = append(colIdx, idx)
		}
	}
	var rows []types.Row
	var insErr error
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(colIdx) {
			insErr = fmt.Errorf("sgb: INSERT expects %d values, got %d", len(colIdx), len(exprRow))
			break
		}
		row := make(types.Row, len(t.Schema))
		for i := range row {
			row[i] = types.Null()
		}
		for i, e := range exprRow {
			v, err := evalConstExpr(e)
			if err != nil {
				insErr = err
				break
			}
			row[colIdx[i]] = v
		}
		if insErr != nil {
			break
		}
		rows = append(rows, row)
	}
	preGen := t.Generation()
	n, berr := t.InsertBatch(rows)
	if berr != nil && insErr == nil {
		insErr = berr
	}
	db.refreshAppendGen(t, preGen, t.Generation())
	// Log whatever prefix of the statement actually applied — the rows
	// are read back from the table, post type-coercion, so replay
	// through the same insert path reproduces the stored bytes exactly.
	// A failing statement may thus be partially durable, matching the
	// partial in-memory effect it had.
	if n > 0 {
		stored, _ := t.Snapshot()
		if lerr := db.logRecordLocked(wal.Insert{Table: t.Name, Rows: stored[len(stored)-n:]}); lerr != nil && insErr == nil {
			insErr = lerr
		}
	}
	return n, insErr
}

// refreshAppendGen re-synchronizes the table's cached grouping entries
// after an append-only mutation: appends preserve the prefix rows the
// evaluators hold, so an entry that was in sync before the inserts
// stays valid — only its generation stamp moves forward (the new
// suffix is consumed lazily at the next query). Entries that were
// already out of sync keep their stale stamp and rebuild at query
// time.
func (db *DB) refreshAppendGen(t *storage.Table, preGen, newGen int64) {
	for _, it := range db.cache.items() {
		e := it.e
		e.mu.Lock()
		if e.table == t && e.gen == preGen {
			e.gen = newGen
		}
		e.mu.Unlock()
	}
}

// execDelete runs DELETE FROM t [WHERE ...] under the writer lock: it
// resolves the doomed row set by evaluating the predicate against a
// table snapshot (coherent with the live rows, since the writer lock
// excludes every other mutation), compacts the table, and then
// maintains the table's cached incremental grouping states — entries
// that were in sync receive the deleted row ids through the
// evaluator's decremental Remove (row ids and grouping live ids
// coincide by the entry invariant), entries that were not are dropped
// and rebuild on their next query.
func (db *DB) execDelete(s *sqlparser.DeleteStmt, opt QueryOptions) (int, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	t, err := db.cat.Lookup(s.Table)
	if err != nil {
		return 0, err
	}
	var pred exec.Scalar
	if s.Where != nil {
		// The predicate's builder carries the session's similarity
		// settings, so a subquery inside DELETE ... WHERE resolves its
		// doomed rows exactly as the identical SELECT would in this
		// session (same strategy, same JOIN-ANY seed).
		b := plan.NewBuilder(db.cat)
		b.SGBAlgorithm = opt.Algorithm
		b.SGBParallelism = opt.Parallelism
		b.SGBSeed = opt.Seed
		b.SGBStats = opt.Stats
		pred, err = b.CompileTableExpr(t, s.Where)
		if err != nil {
			return 0, err
		}
	}
	rows, preGen := t.Snapshot()
	var doomed []int
	for i, row := range rows {
		if pred != nil {
			v, err := pred(row)
			if err != nil {
				return 0, err
			}
			if !v.Truthy() {
				continue
			}
		}
		doomed = append(doomed, i)
	}
	if len(doomed) == 0 {
		return 0, nil
	}
	if err := t.DeleteRows(doomed); err != nil {
		return 0, err
	}
	db.noteDelete(t, preGen, t.Generation(), doomed)
	return len(doomed), db.logRecordLocked(wal.Delete{Table: t.Name, Idx: doomed})
}

// noteDelete maintains the table's cached incremental grouping states
// after rows were deleted: entries that were in sync (gen == preGen)
// receive the deleted row ids through the evaluator's decremental
// Remove, entries that were not are dropped and rebuild on their next
// query. WAL replay shares this path with live DELETE statements.
func (db *DB) noteDelete(t *storage.Table, preGen, newGen int64, doomed []int) {
	for _, it := range db.cache.items() {
		e := it.e
		e.mu.Lock()
		if e.table != t {
			e.mu.Unlock()
			continue
		}
		if e.gen != preGen {
			// The entry missed an earlier mutation; it would rebuild at
			// query time anyway, and feeding it deletions now could only
			// corrupt it further.
			e.mu.Unlock()
			db.cache.remove(it)
			continue
		}
		if e.lat != nil || e.inc == nil {
			// No decremental single-linkage: a dendrogram merge cannot be
			// unwound locally, so deletion invalidates the lattice entry
			// and the next sweep rebuilds it. An entry still mid-build
			// (neither evaluator set) has nothing to maintain either.
			e.mu.Unlock()
			db.cache.remove(it)
			continue
		}
		// Row ids below consumed are exactly the evaluator's live ids;
		// rows at or beyond consumed were never absorbed and simply
		// vanish before they ever would be.
		fed := doomed[:0:0]
		for _, i := range doomed {
			if i < e.consumed {
				fed = append(fed, i)
			}
		}
		if err := e.inc.Remove(fed); err != nil {
			e.mu.Unlock()
			db.cache.remove(it)
			continue
		}
		e.consumed -= len(fed)
		e.gen = newGen
		e.mu.Unlock()
	}
}

// evalConstExpr evaluates a row-independent expression (literals,
// arithmetic, date/interval math) for INSERT ... VALUES.
func evalConstExpr(e sqlparser.Expr) (types.Value, error) {
	cq, err := plan.CompileConstant(e)
	if err != nil {
		return types.Value{}, err
	}
	return cq, nil
}

// SessionOptions returns the default session's current options (as
// mutated by SET statements executed through DB.Exec).
func (db *DB) SessionOptions() QueryOptions { return db.def.Options() }

// Query runs a SELECT with the default session's options.
func (db *DB) Query(sql string) (*Rows, error) { return db.def.Query(sql) }

// QueryOpt runs a SELECT with explicit similarity-grouping options.
func (db *DB) QueryOpt(sql string, opt QueryOptions) (*Rows, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.runSelect(sel, opt)
}

func (db *DB) runSelect(sel *sqlparser.SelectStmt, opt QueryOptions) (*Rows, error) {
	b := plan.NewBuilder(db.cat)
	b.SGBAlgorithm = opt.Algorithm
	b.SGBParallelism = opt.Parallelism
	b.SGBSeed = opt.Seed
	b.SGBStats = opt.Stats
	if opt.Incremental {
		b.SGBCache = db.sgbCacheHook
	}
	cq, err := b.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	data, err := plan.Execute(cq)
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: cq.Columns, Data: data}, nil
}

// LoadCSV creates a table from CSV previously written by DumpCSV (the
// header carries "name:type" cells).
func (db *DB) LoadCSV(name string, r io.Reader) error {
	t, err := storage.ReadCSV(name, r)
	if err != nil {
		return err
	}
	return db.cat.Create(t)
}

// DumpCSV serializes a table to CSV.
func (db *DB) DumpCSV(name string, w io.Writer) error {
	t, err := db.cat.Lookup(name)
	if err != nil {
		return err
	}
	return t.WriteCSV(w)
}

// Tables lists the registered table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// TableLen returns the row count of a table.
func (db *DB) TableLen(name string) (int, error) {
	t, err := db.cat.Lookup(name)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// Catalog exposes the underlying catalog for in-module tooling (data
// generators, benchmarks). Not part of the stable public surface.
func (db *DB) Catalog() *storage.Catalog { return db.cat }
