package sgb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/incr"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// The shared evaluator cache. Every session of a DB draws its cached
// incremental grouping state — resumable SGB evaluators and ε-lattice
// dendrograms — from this one structure, so N sessions asking the same
// similarity question over one table share ONE maintained evaluator
// instead of building N. The cache is sharded (key-hashed shards, each
// with its own mutex) so concurrent sessions touching different
// entries never contend, and each entry carries its own mutex as a
// singleflight slot: concurrent misses for the same key all acquire
// the same entry, the first to lock it builds, and the rest find the
// built state when the lock frees — coalescing N identical cold
// queries into a single evaluation. Each entry also accumulates the
// operator work (distance computations, probes, ...) spent building
// and maintaining it, so DB.CacheStats can prove that sharing happened
// (N sessions, one build's worth of distance computations).

// cacheShardCount is the number of key-hashed shards. 16 keeps lock
// contention negligible at the benchmark's 128 concurrent sessions
// while the per-shard maps stay small enough to scan cheaply during
// LRU eviction.
const cacheShardCount = 16

// defaultIncrCacheCap bounds the evaluator cache: enough for a handful
// of distinct similarity queries per table without letting a
// query-generating workload accumulate evaluators (each one retains a
// full copy of its table's grouping attributes).
const defaultIncrCacheCap = 8

// incrKey addresses one cached incremental grouping state.
type incrKey struct {
	table       string // lower-cased table name
	fingerprint string // semantics, options, and grouping exprs
}

// incrEntry is one cached incremental grouping state. Its invariant:
// the entry's evaluator holds exactly the first consumed rows of the
// table snapshot at generation gen, in order. Every mutation path
// keeps the pair current — INSERT refreshes gen (appends preserve the
// prefix), DELETE feeds the evaluator's Remove and refreshes gen — so
// a generation mismatch at query time means the table mutated behind
// the cache's back and the entry must be rebuilt. Keying on the
// generation (not the row count) is what makes a delete followed by
// inserts restoring the old length detectable.
//
// mu is the entry's singleflight lock: every build, append, export,
// maintenance feed, and answer build holds it, so concurrent sessions
// advancing one key serialize on the entry — the first builds, the
// rest reuse — and the single-threaded evaluators underneath never see
// concurrent calls. A query whose snapshot generation matches the
// published answer takes no entry lock at all. All fields below mu are
// guarded by it; published and lastUse are atomic.
type incrEntry struct {
	mu    sync.Mutex
	table *storage.Table // identity guard against DROP + re-CREATE
	// Exactly one of inc and lat is set once built. inc is single-ε
	// incremental grouping state; lat is a shared ε-lattice dendrogram
	// (EPS IN / SIMILARITY CUBE): its fingerprint deliberately excludes
	// ε, so every session sweeping this table under one (metric,
	// grouping) configuration reuses one maintained evaluator
	// regardless of which ε levels it asks for. Lattice entries follow
	// the same consumed / gen protocol but take no decremental
	// maintenance — a DELETE drops them (single-linkage merges cannot
	// be unwound).
	inc      *incr.Incremental
	lat      *core.LatticeEvaluator
	consumed int   // how many snapshot rows the state has absorbed
	gen      int64 // table generation the entry is synchronized with
	// stats accumulates the operator work performed building and
	// maintaining this entry, across every session that used it.
	stats core.Stats

	// published is the entry's answer for one table generation (and,
	// for a lattice entry, one ε list): built under mu at most once per
	// generation, then read without mu by every query whose snapshot
	// has that generation. A stamp older than gen stays readable by
	// queries whose snapshots predate the later mutations.
	published atomic.Pointer[answer]
	lastUse   atomic.Int64 // cache clock reading at the entry's last use
}

// answer is an exec.Answer stamped with the table state it answers.
type answer struct {
	table *storage.Table
	gen   int64
	eps   []float64 // the ε list of a lattice answer; nil otherwise
	*exec.Answer
}

// answers reports whether a is the answer for generation gen of t at
// the ε list eps.
func (a *answer) answers(t *storage.Table, gen int64, eps []float64) bool {
	return a != nil && a.table == t && a.gen == gen && slices.Equal(a.eps, eps)
}

// evalCache is the sharded, LRU-bounded entry store.
type evalCache struct {
	cap     atomic.Int64 // SET incr_cache_size
	count   atomic.Int64 // live entries across all shards
	clock   atomic.Int64 // monotonic use counter driving LRU eviction
	evictMu sync.Mutex   // serializes evictors (evictions are rare)
	shards  [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[incrKey]*incrEntry
}

func newEvalCache(capacity int) *evalCache {
	c := &evalCache{}
	c.cap.Store(int64(capacity))
	for i := range c.shards {
		c.shards[i].m = make(map[incrKey]*incrEntry)
	}
	return c
}

// shardFor hashes the key (FNV-1a over both parts) to its shard.
func (c *evalCache) shardFor(key incrKey) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.table); i++ {
		h = (h ^ uint32(key.table[i])) * 16777619
	}
	for i := 0; i < len(key.fingerprint); i++ {
		h = (h ^ uint32(key.fingerprint[i])) * 16777619
	}
	return &c.shards[h%cacheShardCount]
}

// acquire returns the entry for key, creating an empty placeholder on
// miss, and stamps it as just used. The caller locks the entry's mu
// before inspecting or building its state — that lock is what
// coalesces concurrent misses into one build.
func (c *evalCache) acquire(key incrKey) *incrEntry {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		e = &incrEntry{}
		s.m[key] = e
		c.count.Add(1)
	}
	e.lastUse.Store(c.clock.Add(1))
	s.mu.Unlock()
	if !ok {
		c.evictOver()
	}
	return e
}

// add inserts a pre-built entry (the recovery path restoring
// checkpointed evaluators).
func (c *evalCache) add(key incrKey, e *incrEntry) {
	s := c.shardFor(key)
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		c.count.Add(1)
	}
	s.m[key] = e
	e.lastUse.Store(c.clock.Add(1))
	s.mu.Unlock()
	c.evictOver()
}

// setCap changes the entry cap; shrinking evicts down immediately,
// least recently used first.
func (c *evalCache) setCap(n int) {
	c.cap.Store(int64(n))
	c.evictOver()
}

// len returns the live entry count.
func (c *evalCache) len() int { return int(c.count.Load()) }

// evictOver evicts least-recently-used entries until the count is
// within the cap. An entry evicted while a session still holds its
// pointer simply finishes that session's query orphaned — correct,
// merely unshared — and the next query for its key rebuilds.
func (c *evalCache) evictOver() {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	for c.count.Load() > c.cap.Load() {
		var victimShard *cacheShard
		var victimKey incrKey
		oldest := int64(math.MaxInt64)
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			// Equal-lastUse ties break by key so repeated eviction runs
			// pick the same victim whatever order the map yields.
			for k, e := range s.m { //sgblint:allow determinism min-fold with a total-order key tie-break; iteration order cannot change the victim
				u := e.lastUse.Load()
				if u < oldest || (u == oldest && k.less(victimKey)) {
					oldest, victimShard, victimKey = u, s, k
				}
			}
			s.mu.Unlock()
		}
		if victimShard == nil {
			return
		}
		victimShard.mu.Lock()
		// Re-check under the shard lock: a concurrent touch since the
		// scan means this entry is no longer the LRU — skip it and scan
		// again.
		if e, ok := victimShard.m[victimKey]; ok && e.lastUse.Load() == oldest {
			delete(victimShard.m, victimKey)
			c.count.Add(-1)
		}
		victimShard.mu.Unlock()
	}
}

// less orders cache keys by (table, fingerprint) — the
// deterministic tie-break for equal-lastUse eviction candidates.
func (a incrKey) less(b incrKey) bool {
	if a.table != b.table {
		return a.table < b.table
	}
	return a.fingerprint < b.fingerprint
}

// cacheItem is one (key, entry) pair captured by items.
type cacheItem struct {
	key   incrKey
	e     *incrEntry
	shard *cacheShard
}

// items captures the current entry set, shard by shard. Callers then
// lock each entry's mu individually — never while holding a shard
// lock — so a long-running build on one entry cannot stall unrelated
// cache traffic.
func (c *evalCache) items() []cacheItem {
	var out []cacheItem
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.m { //sgblint:allow determinism capture order is incidental; every ordered consumer sorts the returned items
			out = append(out, cacheItem{key: k, e: e, shard: s})
		}
		s.mu.Unlock()
	}
	return out
}

// remove deletes a captured item if the map still holds that exact
// entry (a concurrent eviction-plus-rebuild must not be collateral).
func (c *evalCache) remove(it cacheItem) {
	it.shard.mu.Lock()
	if cur, ok := it.shard.m[it.key]; ok && cur == it.e {
		delete(it.shard.m, it.key)
		c.count.Add(-1)
	}
	it.shard.mu.Unlock()
}

// clearAll drops every entry.
func (c *evalCache) clearAll() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.count.Add(-int64(len(s.m)))
		s.m = make(map[incrKey]*incrEntry)
		s.mu.Unlock()
	}
}

// CacheStats sums the operator work spent building and maintaining
// every live evaluator-cache entry. It is the shared-cache proof
// hook: after N sessions concurrently issue the same similarity query
// over one table, the cache must report a single evaluation's worth of
// distance computations — the singleflight entry locks coalesced the
// other N-1 builds into reads. Evicted entries take their counters
// with them, so compare against a cap large enough for the workload
// under test.
func (db *DB) CacheStats() Stats {
	var total core.Stats
	for _, it := range db.cache.items() {
		it.e.mu.Lock()
		s := it.e.stats
		it.e.mu.Unlock()
		total.Merge(&s)
	}
	return total
}

// cacheQuery is one planned query's use of the cache: its entry key
// and how to build, advance, and read the state behind that entry.
type cacheQuery struct {
	key     incrKey
	anySem  bool
	epsList []float64    // non-empty: an EPS IN sweep over a lattice entry
	opt     core.Options // no Stats, Parallelism 0 (see sgbCacheHook)
	// st is a sweep query's own counter block (never retained in the
	// entry); single-ε queries count nothing per query, since cached
	// state outlives any one query's counters.
	st *core.Stats
}

// sgbCacheHook implements plan.Builder.SGBCache. The returned hook
// finds (or creates) the shared entry for this (table, grouping
// configuration) pair and answers the query from it. A query whose
// snapshot generation matches the entry's published answer returns
// that answer without taking the entry lock. Otherwise the hook locks
// the entry, extracts grouping points only for the rows past consumed,
// appends them, and publishes the answer for the new generation.
// Soundness rests on three facts: the planner installs the hook only
// for bare single-table scans whose grouping expressions hold no
// subquery, table snapshots grow append-only between generation changes
// the cache tracks, and the cache key covers the table identity, the
// grouping expressions, and every resolved option that can influence
// the grouping.
//
// Single-ε entries hold an incr.Incremental and are keyed by every
// option. Sweep (EPS IN) entries hold a shared ε-lattice dendrogram,
// keyed ONLY by the table, the metric and the grouping expressions — not
// ε, and none of the options that cannot change SGB-Any components — so
// sessions differing only in their ε lists share one dendrogram: the
// first query builds it up to its ε_max, and later sweeps at or below
// that bound compute no distances. A sweep above the cached ε_max
// rebuilds the entry at the larger bound; DELETE invalidates lattice
// entries (see noteDelete).
//
// Concurrency: the entry lock is the singleflight slot. N sessions
// missing on one key at once all acquire the same entry; the first
// builds the evaluator (charging the work to the entry's shared Stats)
// and publishes the answer, and the rest find it published — one build
// total, which DB.CacheStats can prove. A session whose snapshot is
// OLDER than the entry's state never rewinds shared state: it reads a
// published answer stamped with its generation if there is one, else it
// answers privately with a one-shot evaluation over its own snapshot.
func (db *DB) sgbCacheHook(table, exprKey string, anySem bool, epsList []float64, opt core.Options) exec.Hook {
	q := &cacheQuery{key: incrKey{table: strings.ToLower(table)}, anySem: anySem, epsList: epsList, opt: opt, st: opt.Stats}
	// Cached state outlives any single query, so per-query knobs that
	// cannot change the grouping are normalized out of both the state
	// and the fingerprint: appends run sequentially, and no query's
	// Stats block is retained.
	q.opt.Stats = nil
	q.opt.Parallelism = 0
	if len(epsList) > 0 {
		q.key.fingerprint = fmt.Sprintf("lattice|metric=%v|by=%s", opt.Metric, exprKey)
	} else {
		q.st = nil
		q.key.fingerprint = fmt.Sprintf("any=%t|metric=%v|eps=%v|overlap=%d|algo=%d|seed=%d|hyst=%v|nohull=%t|by=%s",
			anySem, opt.Metric, opt.Eps, opt.Overlap, opt.Algorithm, opt.Seed,
			opt.IndexHysteresis, opt.NoHullTest, exprKey)
	}
	return func(t *storage.Table, rows []types.Row, gen int64, extract exec.ExtractFunc) (*exec.Answer, error) {
		e := db.cache.acquire(q.key)
		if a := e.published.Load(); a.answers(t, gen, q.epsList) {
			return a.Answer, nil
		}
		if a, err := q.advance(e, t, rows, gen, extract); a != nil || err != nil {
			return a, err
		}
		points, err := extract(rows, 0)
		if err != nil {
			return nil, err
		}
		results, err := q.oneShot(points)
		if err != nil {
			return nil, err
		}
		return &exec.Answer{Results: results}, nil
	}
}

// advance brings e up to the snapshot (rows at generation gen of t) and
// publishes the answer for it. It returns nil, nil when the snapshot is
// older than the entry's state, which the caller then answers privately.
// A failed extraction (say, a NULL grouping attribute in the delta)
// leaves the entry as it was.
func (q *cacheQuery) advance(e *incrEntry, t *storage.Table, rows []types.Row, gen int64, extract exec.ExtractFunc) (*exec.Answer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if a := e.published.Load(); a.answers(t, gen, q.epsList) {
		return a.Answer, nil // published while this query waited for the lock
	}
	built := e.table == t && (e.inc != nil || e.lat != nil)
	if built && gen < e.gen {
		return nil, nil
	}
	// The generation check is the staleness guard: an entry whose stamp
	// does not match the snapshot's generation missed a mutation (a
	// delete through a path the cache could not track, a direct storage
	// append, ...). A row-count check alone is not enough — a delete
	// followed by inserts restoring the old count would slip past it and
	// serve groups over rows that no longer exist.
	fresh := !built || e.gen != gen || e.consumed > len(rows) || !q.fits(e)
	from := e.consumed
	if fresh {
		from = 0
	}
	points, err := extract(rows, from)
	if err != nil {
		return nil, err
	}
	if fresh {
		if err := q.reset(e, points.Dims()); err != nil {
			return nil, err
		}
		e.table, e.consumed, e.gen = t, 0, gen
	}
	if points.Len() > 0 {
		if err := q.append(e, points); err != nil {
			// A torn append leaves the evaluator holding an unknown
			// prefix; poison the entry so the next query rebuilds.
			e.inc, e.lat = nil, nil
			return nil, err
		}
		e.consumed = len(rows)
	}
	var results []*core.Result
	if e.lat != nil {
		results, err = e.lat.Sweep(q.epsList)
	} else {
		var res *core.Result
		res, err = e.inc.Result()
		results = []*core.Result{res}
	}
	if err != nil {
		return nil, err
	}
	a := &answer{table: t, gen: gen, eps: q.epsList, Answer: &exec.Answer{Results: results}}
	e.published.Store(a)
	return a.Answer, nil
}

// fits reports whether e's evaluator is of the query's kind and covers
// its ε levels.
func (q *cacheQuery) fits(e *incrEntry) bool {
	if len(q.epsList) > 0 {
		return e.lat != nil && e.lat.EpsMax() >= q.opt.Eps
	}
	return e.inc != nil
}

// reset gives e a fresh, empty evaluator of the query's kind.
func (q *cacheQuery) reset(e *incrEntry, dims int) error {
	bopt := q.opt
	if len(q.epsList) > 0 {
		lat, err := core.NewLatticeEvaluator(dims, bopt)
		if err != nil {
			return err
		}
		e.inc, e.lat = nil, lat
		return nil
	}
	sem := incr.All
	if q.anySem {
		sem = incr.Any
	}
	bopt.Stats = &e.stats
	inc, err := incr.New(sem, bopt)
	if err != nil {
		return err
	}
	e.inc, e.lat = inc, nil
	return nil
}

// append feeds points to e's evaluator, charging the work to the
// entry's shared counters (and a sweep query's own).
func (q *cacheQuery) append(e *incrEntry, points *geom.PointSet) error {
	if e.inc != nil {
		return e.inc.AppendSet(points)
	}
	var st core.Stats
	if err := e.lat.AppendSet(points, &st); err != nil {
		return err
	}
	e.stats.Merge(&st)
	if q.st != nil {
		q.st.Merge(&st)
	}
	return nil
}

// oneShot evaluates the query from scratch over points — the private
// answer of a snapshot older than the shared state.
func (q *cacheQuery) oneShot(points *geom.PointSet) ([]*core.Result, error) {
	o := q.opt
	o.Stats = q.st
	if len(q.epsList) > 0 {
		return core.SweepAnySet(points, q.epsList, o)
	}
	var res *core.Result
	var err error
	if q.anySem {
		res, err = core.SGBAnySet(points, o)
	} else {
		res, err = core.SGBAllSet(points, o)
	}
	if err != nil {
		return nil, err
	}
	return []*core.Result{res}, nil
}
