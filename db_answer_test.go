package sgb

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/plan"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
)

// Tests of published answers: an evaluator-cache entry answers every
// query at one table generation from a single immutable answer, and an
// SGB node memoizes its folded aggregate rows on that answer.

// rowStrings renders result rows for comparison.
func rowStrings(rows *Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestPublishedAnswerSubqueryAggregate pins that the folded-row memo is
// skipped when an aggregate argument holds a subquery: the subquery's
// table can change while the grouped table's generation does not.
func TestPublishedAnswerSubqueryAggregate(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE p (x FLOAT, y FLOAT)")
	mustExec(t, db, "CREATE TABLE k (v FLOAT)")
	mustExec(t, db, "INSERT INTO p VALUES (0.0, 0.0), (1.0, 0.0), (5.0, 5.0)")
	mustExec(t, db, "INSERT INTO k VALUES (7.0)")
	mustExec(t, db, "SET incremental = on")
	const sql = "SELECT max(x IN (SELECT v FROM k)), count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"
	if got, want := rowStrings(mustQuery(t, db, sql)), []string{"[false 2]", "[false 1]"}; !slices.Equal(got, want) {
		t.Fatalf("before INSERT INTO k: got %v, want %v", got, want)
	}
	mustExec(t, db, "INSERT INTO k VALUES (5.0)")
	if got, want := rowStrings(mustQuery(t, db, sql)), []string{"[false 2]", "[true 1]"}; !slices.Equal(got, want) {
		t.Fatalf("after INSERT INTO k: got %v, want %v", got, want)
	}
}

// TestPublishedAnswerAggregateSignature pins that the folded-row memo,
// shared by every query at one table generation, tells apart aggregates
// that differ only in a text literal's case or a numeric literal's kind:
// each query answers as a one-shot evaluation does, value kinds included.
func TestPublishedAnswerAggregateSignature(t *testing.T) {
	incDB, refDB := Open(), Open()
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "CREATE TABLE p (id INT, tag TEXT, x FLOAT, y FLOAT)")
		mustExec(t, db, "INSERT INTO p VALUES (1, 'a', 0.0, 0.0), (2, 'b', 1.0, 0.0), (3, 'A', 5.0, 5.0)")
	}
	mustExec(t, incDB, "SET incremental = on")
	for _, agg := range []string{
		"max(tag = 'A')", "max(tag = 'a')",
		"sum(id * 2)", "sum(id * 2.0)",
		"max(tag = 'A'), max(tag = 'a')",
		"sum(id * 2), sum(id * 2.0)",
	} {
		sql := "SELECT " + agg + " FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"
		got, want := mustQuery(t, incDB, sql), mustQuery(t, refDB, sql)
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Errorf("%s: incremental %v, one-shot %v", agg, got.Data, want.Data)
		}
	}

	// Within one query the two calls of a pair stay separate aggregates.
	const pairs = "SELECT max(tag = 'A'), max(tag = 'a'), sum(id * 2), sum(id * 2.0) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"
	want := [][]types.Value{
		{types.Bool(false), types.Bool(true), types.Int(6), types.Float(6)},
		{types.Bool(true), types.Bool(false), types.Int(6), types.Float(6)},
	}
	for _, db := range []*DB{incDB, refDB} {
		got := mustQuery(t, db, pairs)
		if len(got.Data) != len(want) {
			t.Fatalf("pairs: got %v, want %v", got.Data, want)
		}
		for i := range want {
			if !reflect.DeepEqual([]types.Value(got.Data[i]), want[i]) {
				t.Errorf("pairs row %d: got %#v, want %#v", i, got.Data[i], want[i])
			}
		}
	}
}

// TestPublishedAnswerGroupingSubquery pins that a grouping expression
// holding a subquery keeps the query off the evaluator cache: its
// points depend on a second table, so cached points would go stale.
func TestPublishedAnswerGroupingSubquery(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE p (x FLOAT, y FLOAT)")
	mustExec(t, db, "CREATE TABLE k (v FLOAT)")
	mustExec(t, db, "INSERT INTO p VALUES (0.0, 0.0), (0.0, 1.0), (0.0, 2.0)")
	mustExec(t, db, "SET incremental = on")
	const sql = "SELECT count(*) FROM p GROUP BY x, (y IN (SELECT v FROM k)) DISTANCE-TO-ANY L2 WITHIN 0.5"
	if got, want := rowStrings(mustQuery(t, db, sql)), []string{"[3]"}; !slices.Equal(got, want) {
		t.Fatalf("before INSERT INTO k: got %v, want %v", got, want)
	}
	mustExec(t, db, "INSERT INTO k VALUES (1.0)")
	if got, want := rowStrings(mustQuery(t, db, sql)), []string{"[2]", "[1]"}; !slices.Equal(got, want) {
		t.Fatalf("after INSERT INTO k: got %v, want %v", got, want)
	}
	if n := db.cache.len(); n != 0 {
		t.Fatalf("grouping subquery created %d cache entries, want 0", n)
	}
}

// cachedNode plans sql with the engine's cache hook installed and
// returns its similarity group-by node.
func cachedNode(t *testing.T, db *DB, sql string) *exec.SGB {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.NewBuilder(db.cat)
	b.SGBCache = db.sgbCacheHook
	cq, err := b.BuildSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	op := cq.Root
	for {
		switch x := op.(type) {
		case *exec.Project:
			op = x.Input
		case *exec.Filter:
			op = x.Input
		case *exec.SGB:
			if x.Hook == nil {
				t.Fatalf("%q planned without a cache hook", sql)
			}
			return x
		default:
			t.Fatalf("unexpected operator %T above the SGB node of %q", op, sql)
		}
	}
}

// partition canonicalizes groupings for comparison: members sorted
// within each group, groups sorted by first member, eliminated ids
// sorted.
func partition(results []*core.Result) [][][]int {
	out := make([][][]int, len(results))
	for li, res := range results {
		sorted := func(ids []int) []int {
			if len(ids) == 0 {
				return nil
			}
			ids = slices.Clone(ids)
			slices.Sort(ids)
			return ids
		}
		for _, g := range res.Groups {
			out[li] = append(out[li], sorted(g.Members))
		}
		slices.SortFunc(out[li], func(a, b []int) int { return a[0] - b[0] })
		out[li] = append(out[li], sorted(res.Eliminated))
	}
	return out
}

// TestPublishedAnswerOldSnapshot drives readers whose snapshots predate
// an INSERT or a DELETE. Each gets the answer for its own generation —
// the published answer while it is still stamped with that generation,
// a private one-shot once the entry has moved on — and every answer
// equals a one-shot evaluation over the reader's rows.
func TestPublishedAnswerOldSnapshot(t *testing.T) {
	queries := []string{
		"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.2",
		"SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1.2 ON-OVERLAP JOIN-ANY",
		"SELECT * FROM p GROUP BY x, y DISTANCE-TO-ANY L2 EPS IN (0.6, 1.2) SIMILARITY CUBE BY EPS",
	}
	for qi, sql := range queries {
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			db := Open()
			mustExec(t, db, "CREATE TABLE p (id INT, x FLOAT, y FLOAT)")
			for i := 0; i < 40; i++ {
				mustExec(t, db, fmt.Sprintf("INSERT INTO p VALUES (%d, %d.0, %.1f)", i, i%8, float64(i/8)*1.1))
			}
			tbl, err := db.cat.Lookup("p")
			if err != nil {
				t.Fatal(err)
			}
			node := cachedNode(t, db, sql)
			read := func(rows []types.Row, gen int64) *exec.Answer {
				t.Helper()
				ans, err := node.Hook(tbl, rows, gen, node.Extract)
				if err != nil {
					t.Fatal(err)
				}
				points, err := node.Extract(rows, 0)
				if err != nil {
					t.Fatal(err)
				}
				var want []*core.Result
				if len(node.EpsList) > 0 {
					want, err = core.SweepAnySet(points, node.EpsList, node.Opt)
				} else {
					var res *core.Result
					if node.Any {
						res, err = core.SGBAnySet(points, node.Opt)
					} else {
						res, err = core.SGBAllSet(points, node.Opt)
					}
					want = []*core.Result{res}
				}
				if err != nil {
					t.Fatal(err)
				}
				if got, want := partition(ans.Results), partition(want); !reflect.DeepEqual(got, want) {
					t.Fatalf("answer at generation %d differs from one-shot:\ngot  %v\nwant %v", gen, got, want)
				}
				return ans
			}

			for _, write := range []string{
				"INSERT INTO p VALUES (100, 3.5, 3.5), (101, 9.0, 9.0)",
				"DELETE FROM p WHERE id = 9 OR id = 20",
			} {
				oldRows, oldGen := tbl.Snapshot()
				published := read(oldRows, oldGen)
				if again := read(oldRows, oldGen); again != published {
					t.Fatal("a second read at one generation did not reuse the published answer")
				}
				mustExec(t, db, write)
				if len(node.EpsList) == 0 || strings.HasPrefix(write, "INSERT") {
					// Lattice entries die on DELETE, taking their answer
					// with them; every other entry keeps it readable.
					if got := read(oldRows, oldGen); got != published {
						t.Fatalf("after %q: a reader at the old generation did not get the answer published for it", write)
					}
				}
				newRows, newGen := tbl.Snapshot()
				if read(newRows, newGen) == published {
					t.Fatalf("after %q: the new generation reused the old answer", write)
				}
				if got := read(oldRows, oldGen); got == published {
					t.Fatalf("after %q: the old answer was served although the entry moved on", write)
				}
			}
		})
	}
}

// TestPublishedAnswerConcurrent races lock-free readers of published
// answers against the writes and queries that advance the entry. Every
// hook answer must equal a one-shot evaluation over the reader's own
// snapshot, and every SQL answer (through the folded-row memo) must
// count the rows of some generation the writer produced.
func TestPublishedAnswerConcurrent(t *testing.T) {
	const sql = "SELECT count(*) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.2"
	const base, readers, rounds = 60, 4, 30
	db := Open()
	mustExec(t, db, "CREATE TABLE p (id INT, x FLOAT, y FLOAT)")
	for i := 0; i < base; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO p VALUES (%d, %d.0, %d.0)", i, i%10, i/10))
	}
	mustExec(t, db, "SET incremental = on")
	tbl, err := db.cat.Lookup("p")
	if err != nil {
		t.Fatal(err)
	}
	node := cachedNode(t, db, sql)

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			// The table holds base or base+1 rows at every generation.
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO p VALUES (%d, %d.5, 2.5)", 1000+r, r%10)); err != nil {
				errs <- err
				return
			}
			if _, err := db.Exec(fmt.Sprintf("DELETE FROM p WHERE id = %d", 1000+r)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rows, gen := tbl.Snapshot()
				ans, err := node.Hook(tbl, rows, gen, node.Extract)
				if err != nil {
					errs <- err
					return
				}
				points, err := node.Extract(rows, 0)
				if err != nil {
					errs <- err
					return
				}
				want, err := core.SGBAnySet(points, node.Opt)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(partition(ans.Results), partition([]*core.Result{want})) {
					errs <- fmt.Errorf("answer at generation %d differs from one-shot", gen)
					return
				}
				res, err := db.Query(sql)
				if err != nil {
					errs <- err
					return
				}
				var total int64
				for _, row := range res.Data {
					total += row[0].I
				}
				if total != base && total != base+1 {
					errs <- fmt.Errorf("SQL answer counts %d rows, want %d or %d", total, base, base+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPublishedAnswerNullDelta checks that a NULL grouping attribute in
// the rows appended since the entry's last answer fails the query with
// the row's table position, and leaves the entry where it was.
func TestPublishedAnswerNullDelta(t *testing.T) {
	incDB, refDB := Open(), Open()
	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "CREATE TABLE p (id INT, x FLOAT, y FLOAT)")
		mustExec(t, db, "INSERT INTO p VALUES (0, 0.0, 0.0), (1, 1.0, 0.0), (2, 5.0, 5.0), (3, 5.5, 5.0), (4, 9.0, 0.0)")
	}
	mustExec(t, incDB, "SET incremental = on")
	const sql = "SELECT count(*), min(id) FROM p GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"
	mustQuery(t, incDB, sql)
	items := incDB.cache.items()
	if len(items) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(items))
	}
	e := items[0].e
	before := e.published.Load()

	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "INSERT INTO p VALUES (5, 2.0, 0.0), (6, NULL, 1.0)")
	}
	_, err := incDB.Query(sql)
	if err == nil || !strings.Contains(err.Error(), "NULL similarity grouping attribute in row 6") {
		t.Fatalf("query over a NULL delta row: got error %v, want one naming row 6", err)
	}
	e.mu.Lock()
	consumed := e.consumed
	e.mu.Unlock()
	if consumed != 5 || e.published.Load() != before {
		t.Fatalf("failed delta advanced the entry: consumed %d (want 5), answer replaced %t", consumed, e.published.Load() != before)
	}

	for _, db := range []*DB{incDB, refDB} {
		mustExec(t, db, "DELETE FROM p WHERE id = 6")
	}
	got, want := rowStrings(mustQuery(t, incDB, sql)), rowStrings(mustQuery(t, refDB, sql))
	if !slices.Equal(got, want) {
		t.Fatalf("after removing the NULL row: incremental %v, one-shot %v", got, want)
	}
}

// TestCacheHitAllocsFlat is the O(output) acceptance check: a cache-hit
// SGB-Any query with one output row allocates no more over 32,768 rows
// than over 512, give or take a small constant.
func TestCacheHitAllocsFlat(t *testing.T) {
	const sql = "SELECT count(*), avg(x) FROM u GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"
	hitAllocs := func(n int) float64 {
		db := Open()
		mustExec(t, db, "CREATE TABLE u (x FLOAT, y FLOAT)")
		tbl, err := db.cat.Lookup("u")
		if err != nil {
			t.Fatal(err)
		}
		// A unit-spaced lattice 128 points wide: one ε-component.
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.Float(float64(i % 128)), types.Float(float64(i / 128))}
		}
		if _, err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "SET incremental = on")
		if got := mustQuery(t, db, sql); got.Len() != 1 || got.Data[0][0].I != int64(n) {
			t.Fatalf("n=%d: got %v, want one group of %d", n, rowStrings(got), n)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := hitAllocs(512), hitAllocs(32768)
	t.Logf("allocs per hit: %.0f at 512 rows, %.0f at 32768", small, large)
	if large > small+4 {
		t.Fatalf("cache-hit allocations grow with the table: %.0f at 512 rows, %.0f at 32768", small, large)
	}
}
