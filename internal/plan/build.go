package plan

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// CompiledQuery is an executable query with its output column names.
type CompiledQuery struct {
	Root    exec.Operator
	Columns []string
}

// Builder compiles SELECT statements against a catalog.
type Builder struct {
	Catalog *storage.Catalog
	// SGBAlgorithm selects the evaluation strategy for similarity
	// group-by nodes. The planner default is GridIndex — the fastest
	// strategy at every dimensionality now that cell keys are hashed —
	// and benchmarks override it to compare All-Pairs, Bounds-Checking,
	// and the R-tree.
	SGBAlgorithm core.Algorithm
	// SGBParallelism is the worker count of the SGB-Any pipeline: 0
	// (the planner default) lets the operator pick GOMAXPROCS workers
	// on large inputs, 1 forces sequential evaluation, ≥ 2 forces that
	// many workers. SGB-All always evaluates sequentially.
	SGBParallelism int
	// SGBSeed seeds JOIN-ANY arbitration.
	SGBSeed int64
	// SGBStats, when non-nil, accumulates operator statistics.
	SGBStats *core.Stats
	// SGBCache, when non-nil, is consulted for similarity group-by
	// queries of the cacheable shape — a bare scan of one base table (no
	// WHERE, no join) whose grouping expressions hold no subquery: it
	// returns the node's Hook, backed by cached evaluator state that
	// the engine maintains across queries and INSERT/DELETE. The shape
	// restriction is what makes caching sound: only then is the
	// extracted point sequence a pure, prefix-stable, append-only image
	// of the table. exprKey fingerprints the grouping expressions;
	// epsList is the EPS IN list (validated, ascending, opt.Eps its
	// maximum; empty for a single ε); opt is the fully resolved
	// operator configuration. One hook serves single-ε and sweep
	// queries alike.
	SGBCache func(table, exprKey string, anySem bool, epsList []float64, opt core.Options) exec.Hook
	// SGBIncr and SGBSweep are the point-level grouping seams of the
	// same shape, consulted only without SGBCache: they receive the
	// whole table's grouping points (exec.GroupFunc.Hook) for single-ε
	// and EPS IN queries respectively, and must return what the
	// one-shot core entry points would.
	//
	// Deprecated: use SGBCache. The engine never sets these; they
	// remain only for the perfbench module's traced run, which wraps
	// the core call through them, and go when it moves to SGBCache.
	SGBIncr  func(table, exprKey string, anySem bool, opt core.Options) exec.GroupFunc
	SGBSweep func(table, exprKey string, epsList []float64, opt core.Options) exec.SweepFunc
}

// NewBuilder returns a Builder with the default (ε-grid) SGB strategy.
func NewBuilder(cat *storage.Catalog) *Builder {
	return &Builder{Catalog: cat, SGBAlgorithm: core.GridIndex}
}

// CompileTableExpr compiles an expression against a base table's row
// layout — the DELETE ... WHERE evaluation path, where the predicate
// runs row by row against the stored tuples rather than through an
// operator tree. Subqueries (WHERE id IN (SELECT ...)) plan against
// the builder's catalog as usual.
func (b *Builder) CompileTableExpr(t *storage.Table, e sqlparser.Expr) (exec.Scalar, error) {
	env := make(Env, len(t.Schema))
	for i, c := range t.Schema {
		env[i] = Column{Qual: t.Name, Name: c.Name}
	}
	return compileScalar(e, env, b)
}

// BuildSelect compiles a SELECT into an operator tree.
func (b *Builder) BuildSelect(sel *sqlparser.SelectStmt) (*CompiledQuery, error) {
	op, env, err := b.planSelect(sel)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(env))
	for i, c := range env {
		cols[i] = c.Name
	}
	return &CompiledQuery{Root: op, Columns: cols}, nil
}

// planSubquery implements subqueryPlanner.
func (b *Builder) planSubquery(sel *sqlparser.SelectStmt) (exec.Operator, Env, error) {
	return b.planSelect(sel)
}

// plannedInput is one FROM item: its operator, column layout, and a
// row-count estimate (-1 when unknown) used to pick hash-join build
// sides.
type plannedInput struct {
	op  exec.Operator
	env Env
	est int
}

func (b *Builder) planSelect(sel *sqlparser.SelectStmt) (exec.Operator, Env, error) {
	// FROM clause.
	var conjuncts []sqlparser.Expr
	if sel.Where != nil {
		conjuncts = splitConjuncts(sel.Where)
	}
	var current plannedInput
	switch {
	case len(sel.From) == 0:
		current = plannedInput{op: &exec.ValuesOp{Rows: []types.Row{{}}}, est: 1}
	default:
		inputs := make([]plannedInput, len(sel.From))
		for i, ref := range sel.From {
			in, err := b.planTableRef(ref)
			if err != nil {
				return nil, nil, err
			}
			inputs[i] = in
		}
		// Predicate pushdown: single-input conjuncts filter before joins.
		for i := range inputs {
			inputs[i], conjuncts = b.pushFilters(inputs[i], conjuncts)
		}
		// Left-deep join folding in FROM order.
		current = inputs[0]
		for _, next := range inputs[1:] {
			joined, rest, err := b.join(current, next, conjuncts)
			if err != nil {
				return nil, nil, err
			}
			current, conjuncts = joined, rest
		}
	}
	// Residual WHERE conjuncts (e.g. IN subqueries, cross-input
	// non-equi predicates).
	for _, cj := range conjuncts {
		pred, err := compileScalar(cj, current.env, b)
		if err != nil {
			return nil, nil, err
		}
		current.op = &exec.Filter{Input: current.op, Pred: pred}
	}

	// Grouping and projection.
	hasAggs := sel.Having != nil && containsAggregate(sel.Having)
	for _, item := range sel.Items {
		if !item.Star && containsAggregate(item.Expr) {
			hasAggs = true
		}
	}
	var (
		op     exec.Operator
		outEnv Env
		err    error
	)
	switch {
	case sel.GroupBy != nil && sel.GroupBy.Similarity != nil:
		op, outEnv, err = b.planSimilarityGroupBy(sel, current)
	case sel.GroupBy != nil || hasAggs:
		op, outEnv, err = b.planGroupBy(sel, current)
	default:
		if sel.Having != nil {
			return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		op, outEnv, err = b.planProjection(sel, current)
	}
	if err != nil {
		return nil, nil, err
	}

	if sel.Distinct {
		op = &exec.Distinct{Input: op}
	}
	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(sel.OrderBy))
		for i, item := range sel.OrderBy {
			s, err := b.compileOrderKey(item.Expr, outEnv)
			if err != nil {
				return nil, nil, err
			}
			keys[i] = exec.SortKey{Expr: s, Desc: item.Desc}
		}
		op = &exec.Sort{Input: op, Keys: keys}
	}
	if sel.Limit != nil {
		op = &exec.Limit{Input: op, N: *sel.Limit}
	}
	return op, outEnv, nil
}

// compileOrderKey resolves an ORDER BY key against the output schema
// (select aliases and names), with ordinal support (ORDER BY 2).
func (b *Builder) compileOrderKey(e sqlparser.Expr, outEnv Env) (exec.Scalar, error) {
	if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Kind == types.KindInt {
		idx := int(lit.Val.I) - 1
		if idx < 0 || idx >= len(outEnv) {
			return nil, fmt.Errorf("plan: ORDER BY position %d out of range", lit.Val.I)
		}
		return func(row types.Row) (types.Value, error) { return row[idx], nil }, nil
	}
	return compileScalar(e, outEnv, b)
}

func (b *Builder) planTableRef(ref sqlparser.TableRef) (plannedInput, error) {
	switch r := ref.(type) {
	case *sqlparser.BaseTable:
		t, err := b.Catalog.Lookup(r.Name)
		if err != nil {
			return plannedInput{}, err
		}
		qual := r.Name
		if r.Alias != "" {
			qual = r.Alias
		}
		env := make(Env, len(t.Schema))
		for i, c := range t.Schema {
			env[i] = Column{Qual: qual, Name: c.Name}
		}
		return plannedInput{op: &exec.SeqScan{Table: t}, env: env, est: t.Len()}, nil

	case *sqlparser.SubqueryTable:
		op, env, err := b.planSelect(r.Select)
		if err != nil {
			return plannedInput{}, err
		}
		requal := make(Env, len(env))
		for i, c := range env {
			requal[i] = Column{Qual: r.Alias, Name: c.Name}
		}
		return plannedInput{op: op, env: requal, est: -1}, nil

	case *sqlparser.JoinTable:
		left, err := b.planTableRef(r.Left)
		if err != nil {
			return plannedInput{}, err
		}
		right, err := b.planTableRef(r.Right)
		if err != nil {
			return plannedInput{}, err
		}
		joined, rest, err := b.join(left, right, splitConjuncts(r.Cond))
		if err != nil {
			return plannedInput{}, err
		}
		// ON-clause conjuncts must all apply within this join.
		for _, cj := range rest {
			pred, err := compileScalar(cj, joined.env, b)
			if err != nil {
				return plannedInput{}, err
			}
			joined.op = &exec.Filter{Input: joined.op, Pred: pred}
		}
		return joined, nil

	default:
		return plannedInput{}, fmt.Errorf("plan: unsupported table reference %T", ref)
	}
}

// pushFilters attaches every conjunct that references only this input
// as a pre-join filter, returning the remaining conjuncts.
func (b *Builder) pushFilters(in plannedInput, conjuncts []sqlparser.Expr) (plannedInput, []sqlparser.Expr) {
	var rest []sqlparser.Expr
	for _, cj := range conjuncts {
		if pred, err := compileScalar(cj, in.env, b); err == nil {
			in.op = &exec.Filter{Input: in.op, Pred: pred}
		} else {
			rest = append(rest, cj)
		}
	}
	return in, rest
}

// join combines two inputs: conjuncts of the form left.x = right.y
// become hash-join keys; other conjuncts that reference only the
// combined row become residual predicates; the rest are returned for
// later placement. Without equi keys the join degrades to a nested
// loop. The smaller estimated side becomes the hash build side.
func (b *Builder) join(l, r plannedInput, conjuncts []sqlparser.Expr) (plannedInput, []sqlparser.Expr, error) {
	// Pick the build side (hash table) — smaller estimate, defaulting
	// to the left input. Output layout is build ++ probe.
	build, probe := l, r
	if l.est < 0 || (r.est >= 0 && r.est < l.est) {
		build, probe = r, l
	}
	env := append(append(Env{}, build.env...), probe.env...)

	var buildKeys, probeKeys []exec.Scalar
	var residuals []exec.Scalar
	var rest []sqlparser.Expr
	for _, cj := range conjuncts {
		if bk, pk, ok := b.equiKeys(cj, build.env, probe.env); ok {
			buildKeys = append(buildKeys, bk)
			probeKeys = append(probeKeys, pk)
			continue
		}
		if pred, err := compileScalar(cj, env, b); err == nil {
			residuals = append(residuals, pred)
			continue
		}
		rest = append(rest, cj)
	}

	est := -1
	if build.est >= 0 && probe.est >= 0 {
		est = max(build.est, probe.est)
	}
	if len(buildKeys) > 0 {
		residual := andAll(residuals)
		op := &exec.HashJoin{
			Left: build.op, Right: probe.op,
			LeftKeys: buildKeys, RightKeys: probeKeys,
			Residual: residual,
		}
		return plannedInput{op: op, env: env, est: est}, rest, nil
	}
	op := &exec.NestedLoopJoin{Left: build.op, Right: probe.op, Cond: andAll(residuals)}
	return plannedInput{op: op, env: env, est: est}, rest, nil
}

// equiKeys recognizes `a = b` with one side referencing only the build
// env and the other only the probe env.
func (b *Builder) equiKeys(cj sqlparser.Expr, buildEnv, probeEnv Env) (bk, pk exec.Scalar, ok bool) {
	eq, isEq := cj.(*sqlparser.BinaryExpr)
	if !isEq || eq.Op != "=" {
		return nil, nil, false
	}
	lOnBuild, el1 := compileScalar(eq.L, buildEnv, b)
	rOnProbe, er1 := compileScalar(eq.R, probeEnv, b)
	if el1 == nil && er1 == nil {
		return lOnBuild, rOnProbe, true
	}
	lOnProbe, el2 := compileScalar(eq.L, probeEnv, b)
	rOnBuild, er2 := compileScalar(eq.R, buildEnv, b)
	if el2 == nil && er2 == nil {
		return rOnBuild, lOnProbe, true
	}
	return nil, nil, false
}

// andAll folds predicates into a single conjunction (nil when empty).
func andAll(preds []exec.Scalar) exec.Scalar {
	if len(preds) == 0 {
		return nil
	}
	if len(preds) == 1 {
		return preds[0]
	}
	return func(row types.Row) (types.Value, error) {
		for _, p := range preds {
			v, err := p(row)
			if err != nil {
				return types.Value{}, err
			}
			if !v.Truthy() {
				return types.Bool(false), nil
			}
		}
		return types.Bool(true), nil
	}
}

// planProjection handles SELECT without grouping or aggregation.
func (b *Builder) planProjection(sel *sqlparser.SelectStmt, in plannedInput) (exec.Operator, Env, error) {
	var exprs []exec.Scalar
	var outEnv Env
	for i, item := range sel.Items {
		if item.Star {
			for j, c := range in.env {
				idx := j
				exprs = append(exprs, func(row types.Row) (types.Value, error) { return row[idx], nil })
				outEnv = append(outEnv, Column{Name: c.Name})
			}
			continue
		}
		s, err := compileScalar(item.Expr, in.env, b)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, s)
		outEnv = append(outEnv, Column{Name: outputName(item, i)})
	}
	return &exec.Project{Input: in.op, Exprs: exprs}, outEnv, nil
}

// planGroupBy handles standard GROUP BY and scalar aggregation.
func (b *Builder) planGroupBy(sel *sqlparser.SelectStmt, in plannedInput) (exec.Operator, Env, error) {
	var groupExprs []sqlparser.Expr
	if sel.GroupBy != nil {
		groupExprs = sel.GroupBy.Exprs
	}
	groups := make([]exec.Scalar, len(groupExprs))
	groupKeys := make([]string, len(groupExprs))
	for i, ge := range groupExprs {
		s, err := compileScalar(ge, in.env, b)
		if err != nil {
			return nil, nil, err
		}
		groups[i] = s
		groupKeys[i], _ = matchKey(ge)
	}

	binder := &aggBinder{baseEnv: in.env, sp: b, groupKeys: groupKeys, aggBase: len(groupExprs)}
	selScalars, outEnv, err := b.compileSelectItems(sel, binder)
	if err != nil {
		return nil, nil, err
	}
	var havingPred exec.Scalar
	if sel.Having != nil {
		havingPred, err = binder.compile(sel.Having)
		if err != nil {
			return nil, nil, err
		}
	}

	var op exec.Operator = &exec.HashAgg{Input: in.op, Groups: groups, Aggs: binder.aggs}
	if havingPred != nil {
		op = &exec.Filter{Input: op, Pred: havingPred}
	}
	return &exec.Project{Input: op, Exprs: selScalars}, outEnv, nil
}

// planSimilarityGroupBy builds the SGB-All / SGB-Any plan node.
func (b *Builder) planSimilarityGroupBy(sel *sqlparser.SelectStmt, in plannedInput) (exec.Operator, Env, error) {
	gb := sel.GroupBy
	sim := gb.Similarity

	groupExprs := make([]exec.Scalar, len(gb.Exprs))
	probe := &subqueryProbe{sp: b}
	for i, ge := range gb.Exprs {
		s, err := compileScalar(ge, in.env, probe)
		if err != nil {
			return nil, nil, err
		}
		groupExprs[i] = s
	}
	cacheable := !probe.seen && sel.Where == nil && len(sel.From) == 1

	opt := core.Options{
		Algorithm:   b.SGBAlgorithm,
		Parallelism: b.SGBParallelism,
		Seed:        b.SGBSeed,
		Stats:       b.SGBStats,
	}
	switch sim.Metric {
	case sqlparser.MetricL2:
		opt.Metric = geom.L2
	case sqlparser.MetricLInf:
		opt.Metric = geom.LInf
	}
	switch sim.Overlap {
	case sqlparser.OverlapJoinAny:
		opt.Overlap = core.JoinAny
	case sqlparser.OverlapEliminate:
		opt.Overlap = core.Eliminate
	case sqlparser.OverlapFormNewGroup:
		opt.Overlap = core.FormNewGroup
	}
	if sim.Semantics == sqlparser.SemanticsAny && opt.Algorithm == core.BoundsCheck {
		// SGB-Any has no bounds-checking variant (Section 7.1).
		opt.Algorithm = core.OnTheFlyIndex
	}

	if len(sim.EpsList) > 0 {
		return b.planEpsSweep(sel, in, gb, sim, groupExprs, opt, cacheable)
	}

	// ε must be a positive numeric constant.
	epsScalar, err := compileScalar(sim.Eps, nil, b)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: WITHIN threshold must be a constant: %v", err)
	}
	epsVal, err := epsScalar(nil)
	if err != nil {
		return nil, nil, err
	}
	eps, err := epsVal.AsFloat()
	if err != nil || eps <= 0 {
		return nil, nil, fmt.Errorf("plan: WITHIN threshold must be a positive number, got %v", epsVal)
	}
	opt.Eps = eps

	// Similarity grouping exposes no grouping columns: every select
	// item and the HAVING clause must be built from aggregates.
	binder := &aggBinder{baseEnv: in.env, sp: b, aggBase: 0}
	selScalars, outEnv, err := b.compileSelectItems(sel, binder)
	if err != nil {
		return nil, nil, err
	}
	var havingPred exec.Scalar
	if sel.Having != nil {
		havingPred, err = binder.compile(sel.Having)
		if err != nil {
			return nil, nil, err
		}
	}

	sgbNode := &exec.SGB{
		Input:      in.op,
		GroupExprs: groupExprs,
		Any:        sim.Semantics == sqlparser.SemanticsAny,
		Opt:        opt,
		Aggs:       binder.aggs,
		AggSig:     binder.sig(nil, false),
	}
	if cacheable {
		b.installHook(sel, gb, sgbNode)
	}
	var op exec.Operator = sgbNode
	if havingPred != nil {
		op = &exec.Filter{Input: op, Pred: havingPred}
	}
	return &exec.Project{Input: op, Exprs: selScalars}, outEnv, nil
}

// installHook sets the cache hook of a similarity group-by node of the
// cacheable shape (see Builder.SGBCache): SGBCache when set, else the
// point-level SGBIncr or SGBSweep seam.
func (b *Builder) installHook(sel *sqlparser.SelectStmt, gb *sqlparser.GroupByClause, node *exec.SGB) {
	bt, ok := sel.From[0].(*sqlparser.BaseTable)
	if !ok {
		return
	}
	keys := make([]string, len(gb.Exprs))
	for i, ge := range gb.Exprs {
		keys[i] = ge.String()
	}
	exprKey := strings.Join(keys, ",")
	switch {
	case b.SGBCache != nil:
		node.Hook = b.SGBCache(bt.Name, exprKey, node.Any, node.EpsList, node.Opt)
	case len(node.EpsList) > 0 && b.SGBSweep != nil:
		node.Hook = b.SGBSweep(bt.Name, exprKey, node.EpsList, node.Opt).Hook()
	case len(node.EpsList) == 0 && b.SGBIncr != nil:
		node.Hook = b.SGBIncr(bt.Name, exprKey, node.Any, node.Opt).Hook()
	}
}

// planEpsSweep lowers the EPS IN (...) / SIMILARITY CUBE BY EPS forms
// of the similarity clause: every level is answered from one shared
// dendrogram, rows are emitted level by level in ascending ε order,
// and the level's ε rides along as output column 0 — exposed to the
// projection and HAVING as the pseudo-column "eps" (cube queries
// instead get the fixed rollup schema and must be SELECT *).
func (b *Builder) planEpsSweep(sel *sqlparser.SelectStmt, in plannedInput, gb *sqlparser.GroupByClause, sim *sqlparser.SimilarityClause, groupExprs []exec.Scalar, opt core.Options, cacheable bool) (exec.Operator, Env, error) {
	epsList := make([]float64, len(sim.EpsList))
	for i, e := range sim.EpsList {
		s, err := compileScalar(e, nil, b)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: EPS IN level %d must be a constant: %v", i+1, err)
		}
		v, err := s(nil)
		if err != nil {
			return nil, nil, err
		}
		f, err := v.AsFloat()
		if err != nil {
			return nil, nil, fmt.Errorf("plan: EPS IN level %d must be numeric, got %v", i+1, v)
		}
		epsList[i] = f
	}
	// Named validation errors shared with the Go API: non-positive,
	// duplicate (checked before sorting so the message reflects the
	// query's spelling).
	if err := core.ValidateEpsList(epsList); err != nil {
		return nil, nil, err
	}
	sort.Float64s(epsList)
	opt.Eps = epsList[len(epsList)-1] // the sweep's ε_max

	sgbNode := &exec.SGB{
		Input:      in.op,
		GroupExprs: groupExprs,
		Any:        true,
		Opt:        opt,
		EpsList:    epsList,
		Cube:       sim.Cube,
	}

	var (
		selScalars []exec.Scalar
		outEnv     Env
		havingPred exec.Scalar
		err        error
	)
	if sim.Cube {
		// The cube defines its own row schema; the query must take it
		// as-is.
		if len(sel.Items) != 1 || !sel.Items[0].Star {
			return nil, nil, fmt.Errorf("plan: SIMILARITY CUBE BY EPS requires SELECT * (the cube emits its own schema: eps, group_count, largest_group, grouped_fraction)")
		}
		if sel.Having != nil {
			return nil, nil, fmt.Errorf("plan: HAVING is not supported with SIMILARITY CUBE BY EPS")
		}
		sgbNode.AggSig = aggSig(nil, epsList, true)
		for i := 0; i < 4; i++ {
			idx := i
			selScalars = append(selScalars, func(row types.Row) (types.Value, error) { return row[idx], nil })
		}
		outEnv = Env{
			{Name: "eps"},
			{Name: "group_count"},
			{Name: "largest_group"},
			{Name: "grouped_fraction"},
		}
	} else {
		binder := &aggBinder{baseEnv: in.env, sp: b, groupKeys: []string{"eps"}, aggBase: 1}
		selScalars, outEnv, err = b.compileSelectItems(sel, binder)
		if err != nil {
			return nil, nil, err
		}
		if sel.Having != nil {
			havingPred, err = binder.compile(sel.Having)
			if err != nil {
				return nil, nil, err
			}
		}
		sgbNode.Aggs = binder.aggs
		sgbNode.AggSig = binder.sig(epsList, false)
	}

	if cacheable {
		b.installHook(sel, gb, sgbNode)
	}
	var op exec.Operator = sgbNode
	if havingPred != nil {
		op = &exec.Filter{Input: op, Pred: havingPred}
	}
	return &exec.Project{Input: op, Exprs: selScalars}, outEnv, nil
}

// compileSelectItems compiles the projection through the agg binder.
func (b *Builder) compileSelectItems(sel *sqlparser.SelectStmt, binder *aggBinder) ([]exec.Scalar, Env, error) {
	var scalars []exec.Scalar
	var outEnv Env
	for i, item := range sel.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("plan: SELECT * is incompatible with grouping/aggregation")
		}
		s, err := binder.compile(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		scalars = append(scalars, s)
		outEnv = append(outEnv, Column{Name: outputName(item, i)})
	}
	return scalars, outEnv, nil
}

// outputName derives the result column name for a select item.
func outputName(item sqlparser.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return e.Name
	case *sqlparser.FuncCall:
		return e.Name
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
