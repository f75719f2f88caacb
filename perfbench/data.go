package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/sgb-db/sgb/internal/benchkit"
	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

const (
	// tableRows is the size of each generated table.
	tableRows = 32768
	// denseDensity is the dense table's uniform density in points per
	// unit²: at ε = 0.5 the whole table is one ε-component.
	denseDensity = 40.0
	// eps is the similarity threshold of every single-ε query.
	eps = 0.5
	// loadBatch is the number of rows per INSERT statement while loading.
	loadBatch = 1024
	// writeBatch is the number of rows per INSERT statement of the
	// serve-mixed timed phase.
	writeBatch = 4
	// freshIDBase is the first id of a row inserted during a run; each
	// connection draws from its own idStride-wide range.
	freshIDBase = 1 << 30
	idStride    = 1 << 24
)

// sweepEps is the ε list of the SIMILARITY CUBE query class.
var sweepEps = []float64{0.1, 0.2, 0.3, 0.5}

// row is one generated tuple of a (id INT, x FLOAT, y FLOAT, w FLOAT)
// table.
type row struct {
	id      int64
	x, y, w float64
}

// dataset holds both generated tables.
type dataset struct {
	tables map[string][]row
	// clusteredSpan is the side of the clustered table's domain; rows
	// inserted during a run are drawn from it.
	clusteredSpan float64
}

// generate builds the dense and clustered tables from the seed. The
// dense table is uniform at denseDensity points per unit²; the
// clustered table is benchkit.ClusterPoints (16-point clusters on a
// subcritical domain, thousands of small ε-components).
func generate(seed int64) *dataset {
	r := rand.New(rand.NewSource(seed))
	side := math.Sqrt(tableRows / denseDensity)
	dense := make([]row, tableRows)
	for i := range dense {
		dense[i] = row{id: int64(i), x: r.Float64() * side, y: r.Float64() * side, w: r.Float64() * 100}
	}
	span := 2.5 * math.Sqrt(tableRows)
	ps := benchkit.ClusterPoints(tableRows, span, r.Int63())
	clustered := make([]row, tableRows)
	for i := range clustered {
		p := ps.At(i)
		clustered[i] = row{id: int64(i), x: p[0], y: p[1], w: r.Float64() * 100}
	}
	return &dataset{tables: map[string][]row{"dense": dense, "clustered": clustered}, clusteredSpan: span}
}

// points extracts the (x, y) grouping attributes in row order — the
// point set the engine's scan materializes for a bare-table query.
func points(rows []row) *geom.PointSet {
	ps := geom.NewPointSet(2)
	for _, r := range rows {
		p := ps.Extend()
		p[0], p[1] = r.x, r.y
	}
	return ps
}

func createSQL(table string) string {
	return "CREATE TABLE " + table + " (id INT, x FLOAT, y FLOAT, w FLOAT)"
}

// insertSQL renders one INSERT statement. Floats are printed with the
// shortest exact representation, so the stored values are the
// generated ones bit for bit.
func insertSQL(table string, rows []row) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %s, %s, %s)", r.id, fstr(r.x), fstr(r.y), fstr(r.w))
	}
	return b.String()
}

func fstr(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// class is one similarity query shape of the adhoc mix.
type class struct {
	name    string
	any     bool
	sweep   bool
	metric  geom.Metric
	overlap core.Overlap
	clause  string
}

var (
	allL2JoinAny     = class{name: "all_l2_joinany", metric: geom.L2, overlap: core.JoinAny, clause: "DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP JOIN-ANY"}
	allLInfEliminate = class{name: "all_linf_eliminate", metric: geom.LInf, overlap: core.Eliminate, clause: "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP ELIMINATE"}
	allL2FormNew     = class{name: "all_l2_formnew", metric: geom.L2, overlap: core.FormNewGroup, clause: "DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP FORM-NEW-GROUP"}
	anyL2            = class{name: "any_l2", any: true, metric: geom.L2, clause: "DISTANCE-TO-ANY L2 WITHIN 0.5"}
	cube             = class{name: "cube", any: true, sweep: true, metric: geom.L2, clause: "DISTANCE-TO-ANY L2 EPS IN (0.1, 0.2, 0.3, 0.5) SIMILARITY CUBE BY EPS"}

	adhocClasses = []class{allL2JoinAny, allLInfEliminate, allL2FormNew, anyL2, cube}
)

// query is one SELECT of a workload.
type query struct {
	table string
	class class
	sql   string
}

func newQuery(table string, c class) query {
	sel := "SELECT count(*), avg(w), min(x), max(y)"
	if c.sweep {
		sel = "SELECT *"
	}
	return query{table: table, class: c, sql: sel + " FROM " + table + " GROUP BY x, y " + c.clause}
}

// name identifies the query in metric names: <table>.<class>.
func (q query) name() string { return q.table + "." + q.class.name }

// coreOptions is the operator configuration the planner resolves for
// the class under the default session settings (ε-grid, seed 0) at the
// given parallelism.
func (c class) coreOptions(parallelism int) core.Options {
	return core.Options{Metric: c.metric, Eps: eps, Overlap: c.overlap, Algorithm: core.GridIndex, Parallelism: parallelism}
}

// group runs the class's core entry point directly on a point set.
func (c class) group(ps *geom.PointSet, opt core.Options) error {
	var err error
	switch {
	case c.sweep:
		opt.Eps = sweepEps[len(sweepEps)-1]
		_, err = core.SweepAnySet(ps, sweepEps, opt)
	case c.any:
		_, err = core.SGBAnySet(ps, opt)
	default:
		_, err = core.SGBAllSet(ps, opt)
	}
	return err
}
