package exec

import (
	"fmt"
	"sync/atomic"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// SGB is the executor node for the similarity group-by operators. Like
// the paper's PostgreSQL extension it materializes the input into a
// tuple store (the ELIMINATE and FORM-NEW-GROUP semantics can only be
// finalized "after processing the complete dataset"), extracts the
// grouping attributes as multi-dimensional points, runs SGB-All or
// SGB-Any from internal/core, and then folds the configured aggregates
// over each output group. Output rows carry the aggregate results in
// spec order.
//
// With a Hook installed (the engine's evaluator cache) the node does
// not materialize the table: it hands the scan snapshot to the hook,
// which extracts grouping points only for rows its cached state has
// not absorbed yet and returns an Answer that may be shared by every
// query at the snapshot's generation. The node then folds aggregates
// once per (Answer, AggSig) and later queries with the same signature
// emit the memoized rows without touching the table.
//
// Opt.Parallelism (threaded down from the planner's SGBParallelism /
// the engine's SET parallelism session setting) selects the worker
// count of core's SGB-Any partition → connect → merge pipeline
// (SGB-All always runs sequentially); the node's own plumbing is
// oblivious to it, and output rows are bit-identical at every setting
// for both operators (including JOIN-ANY draws under a fixed seed).
type SGB struct {
	Input Operator
	// GroupExprs are the d grouping-attribute expressions (numeric).
	GroupExprs []Scalar
	// Any selects SGB-Any; otherwise SGB-All.
	Any bool
	// Opt carries metric, ε, overlap clause, algorithm, and seed.
	Opt core.Options
	// Aggs are computed per output group.
	Aggs []AggSpec
	// AggSig identifies Aggs together with EpsList and Cube: two nodes
	// with equal signatures fold equal rows from one Answer, so the
	// folded rows are memoized on the Answer under it. Empty disables
	// the memo — the planner leaves it empty when an aggregate argument
	// holds a subquery, whose result can change while the grouped
	// table does not.
	AggSig string

	// EpsList, when non-empty, runs an ε sweep instead of a single
	// evaluation (EPS IN (...); SGB-Any only): one shared dendrogram
	// answers every level, and the node emits each level's aggregate
	// rows with the level's ε prepended as output column 0 (the planner
	// binds aggregates at base 1 and exposes the pseudo-column "eps").
	// Levels are expected in ascending order — the planner sorts them —
	// and rows are emitted level by level in that order.
	EpsList []float64
	// Cube replaces per-group aggregate rows with one rollup row per ε
	// level: (eps, group_count, largest_group, grouped_fraction) — the
	// SIMILARITY CUBE BY EPS output. Aggs must be empty.
	Cube bool
	// Hook, when non-nil and Input is a table scan, computes the
	// grouping instead of the one-shot core entry points (see
	// plan.Builder.SGBCache).
	Hook Hook

	out []types.Row
	pos int
}

// Hook answers an SGB node's grouping over a scan snapshot: rows are
// the rows of table t at generation gen. extract evaluates the node's
// grouping expressions over rows[from:], so a hook whose cached state
// already holds a prefix of the table pays only for the delta. The
// Answer's Results align with the node's EpsList (exactly one Result
// without one) and must equal a one-shot evaluation over rows. A hook
// may return one Answer to every query at a generation: nodes treat it
// as immutable.
type Hook func(t *storage.Table, rows []types.Row, gen int64, extract ExtractFunc) (*Answer, error)

// ExtractFunc is SGB.Extract's signature: the grouping points of
// rows[from:].
type ExtractFunc func(rows []types.Row, from int) (*geom.PointSet, error)

// Answer is the grouping a Hook returns, plus a single slot memoizing
// the rows folded from it under one aggregate signature.
type Answer struct {
	// Results holds one grouping per ε level (one without EPS IN).
	Results []*core.Result

	folded atomic.Pointer[foldedRows]
}

// foldedRows is the memo slot's content: the output rows folded under
// the aggregate signature sig.
type foldedRows struct {
	sig  string
	rows []types.Row
}

// GroupFunc computes the similarity grouping over the node's
// materialized points (indices in the result refer into the set). gen
// is the generation of the table snapshot the points were scanned
// from.
//
// Deprecated: use Hook. GroupFunc and SweepFunc remain only for the
// perfbench module's traced run (via plan.Builder.SGBIncr/SGBSweep);
// the engine does not use them and no new caller should.
type GroupFunc func(points *geom.PointSet, gen int64) (*core.Result, error)

// SweepFunc computes the grouping at every ε level of an EPS IN sweep
// over the node's materialized points, aligned with SGB.EpsList. gen
// is the scan's snapshot generation, as for GroupFunc.
//
// Deprecated: use Hook; see GroupFunc.
type SweepFunc func(points *geom.PointSet, gen int64) ([]*core.Result, error)

// Hook adapts f to a Hook that extracts every row and passes the whole
// point set to f. A nil f yields a nil Hook.
func (f GroupFunc) Hook() Hook {
	if f == nil {
		return nil
	}
	return func(_ *storage.Table, rows []types.Row, gen int64, extract ExtractFunc) (*Answer, error) {
		points, err := extract(rows, 0)
		if err != nil {
			return nil, err
		}
		res, err := f(points, gen)
		if err != nil {
			return nil, err
		}
		return &Answer{Results: []*core.Result{res}}, nil
	}
}

// Hook adapts f to a Hook like GroupFunc.Hook.
func (f SweepFunc) Hook() Hook {
	if f == nil {
		return nil
	}
	return func(_ *storage.Table, rows []types.Row, gen int64, extract ExtractFunc) (*Answer, error) {
		points, err := extract(rows, 0)
		if err != nil {
			return nil, err
		}
		results, err := f(points, gen)
		if err != nil {
			return nil, err
		}
		return &Answer{Results: results}, nil
	}
}

// Open reads the input, groups it (through the Hook over a table scan,
// else one-shot), and folds the aggregates over each output group.
func (s *SGB) Open() error {
	s.out = nil
	s.pos = 0
	for _, a := range s.Aggs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if len(s.GroupExprs) == 0 {
		return fmt.Errorf("exec: similarity grouping requires at least one grouping attribute")
	}
	if len(s.EpsList) > 0 && !s.Any {
		return fmt.Errorf("exec: EPS IN sweeps exist for DISTANCE-TO-ANY only")
	}
	if err := s.Input.Open(); err != nil {
		return err
	}
	defer s.Input.Close()

	if scan, ok := s.Input.(*SeqScan); ok && s.Hook != nil {
		rows, gen := scan.Snapshot()
		ans, err := s.Hook(scan.Table, rows, gen, s.Extract)
		if err != nil {
			return err
		}
		return s.emit(rows, ans)
	}

	rows, err := s.inputRows()
	if err != nil {
		return err
	}
	points, err := s.Extract(rows, 0)
	if err != nil {
		return err
	}
	var results []*core.Result
	var res *core.Result
	switch {
	case len(s.EpsList) > 0:
		results, err = core.SweepAnySet(points, s.EpsList, s.Opt)
	case s.Any:
		res, err = core.SGBAnySet(points, s.Opt)
		results = []*core.Result{res}
	default:
		res, err = core.SGBAllSet(points, s.Opt)
		results = []*core.Result{res}
	}
	if err != nil {
		return err
	}
	return s.emit(rows, &Answer{Results: results})
}

// inputRows returns the opened input's rows: a table scan's snapshot
// as is, any other input drained.
func (s *SGB) inputRows() ([]types.Row, error) {
	if scan, ok := s.Input.(*SeqScan); ok {
		rows, _ := scan.Snapshot()
		return rows, nil
	}
	var rows []types.Row
	for {
		row, err := s.Input.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, row)
	}
}

// Extract evaluates the grouping expressions over rows[from:] into one
// flat PointSet (contiguous, stride d), so the operator core never
// chases per-row coordinate slices. Errors name the row's position in
// rows, so a delta extraction reports the same row a full one would.
func (s *SGB) Extract(rows []types.Row, from int) (*geom.PointSet, error) {
	points := geom.NewPointSetCap(len(s.GroupExprs), len(rows)-from)
	for r := from; r < len(rows); r++ {
		p := points.Extend()
		for i, g := range s.GroupExprs {
			v, err := g(rows[r])
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				return nil, fmt.Errorf("exec: NULL similarity grouping attribute in row %d", r)
			}
			f, err := v.AsFloat()
			if err != nil {
				return nil, fmt.Errorf("exec: similarity grouping attribute %d: %v", i+1, err)
			}
			p[i] = f
		}
	}
	return points, nil
}

// emit sets the node's output to the rows folded from ans over rows,
// reading them from ans's memo slot when it holds this node's
// signature and filling the slot otherwise.
func (s *SGB) emit(rows []types.Row, ans *Answer) error {
	if want := max(len(s.EpsList), 1); len(ans.Results) != want {
		return fmt.Errorf("exec: grouping returned %d levels, want %d", len(ans.Results), want)
	}
	if s.AggSig != "" {
		if f := ans.folded.Load(); f != nil && f.sig == s.AggSig {
			s.out = f.rows
			return nil
		}
	}
	out, err := s.fold(rows, ans.Results)
	if err != nil {
		return err
	}
	if s.AggSig != "" {
		ans.folded.Store(&foldedRows{sig: s.AggSig, rows: out})
	}
	s.out = out
	return nil
}

// fold builds the output rows: per level (a sweep prepends the level's
// ε), one aggregate row per group, or under Cube one rollup row per
// level. The accumulators are created once and reset per group, and
// every aggregate row is cut from one shared value buffer.
func (s *SGB) fold(rows []types.Row, results []*core.Result) ([]types.Row, error) {
	if s.Cube {
		out := make([]types.Row, len(results))
		for li, res := range results {
			out[li] = cubeRow(s.EpsList[li], res, len(rows))
		}
		return out, nil
	}
	accs := make([]accumulator, len(s.Aggs))
	for i, a := range s.Aggs {
		accs[i] = a.newAccumulator()
	}
	width, groups := len(accs), 0
	if len(s.EpsList) > 0 {
		width++
	}
	for _, res := range results {
		groups += len(res.Groups)
	}
	buf := make([]types.Value, 0, groups*width)
	out := make([]types.Row, 0, groups)
	for li, res := range results {
		for _, g := range res.Groups {
			start := len(buf)
			if len(s.EpsList) > 0 {
				buf = append(buf, types.Float(s.EpsList[li]))
			}
			for _, acc := range accs {
				acc.reset()
			}
			for _, m := range g.Members {
				for _, acc := range accs {
					if err := acc.add(rows[m]); err != nil {
						return nil, err
					}
				}
			}
			for _, acc := range accs {
				buf = append(buf, acc.result())
			}
			out = append(out, buf[start:len(buf):len(buf)])
		}
	}
	return out, nil
}

// cubeRow is one SIMILARITY CUBE BY EPS rollup row: (eps, group_count,
// largest_group, grouped_fraction) over n input rows.
func cubeRow(eps float64, res *core.Result, n int) types.Row {
	largest, grouped := 0, 0
	for _, g := range res.Groups {
		if len(g.Members) > largest {
			largest = len(g.Members)
		}
		if len(g.Members) >= 2 {
			grouped += len(g.Members)
		}
	}
	frac := 0.0
	if n > 0 {
		frac = float64(grouped) / float64(n)
	}
	return types.Row{
		types.Float(eps),
		types.Int(int64(len(res.Groups))),
		types.Int(int64(largest)),
		types.Float(frac),
	}
}

// Next emits one aggregate row per output group, in group order. The
// rows may be shared with other queries reading the same Answer and
// must not be modified.
func (s *SGB) Next() (types.Row, error) {
	if s.pos >= len(s.out) {
		return nil, nil
	}
	row := s.out[s.pos]
	s.pos++
	return row, nil
}

// Close releases the materialized output.
func (s *SGB) Close() error { s.out = nil; return nil }
