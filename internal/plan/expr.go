package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/sgb-db/sgb/internal/exec"
	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/types"
)

// Column identifies one column of an intermediate row: an optional
// qualifier (table name or alias) and the column name.
type Column struct {
	Qual string
	Name string
}

// Env is the ordered column layout of an operator's output rows.
type Env []Column

// resolve finds the row index for a (possibly qualified) reference.
func (e Env) resolve(ref *sqlparser.ColumnRef) (int, error) {
	found := -1
	for i, c := range e {
		if !strings.EqualFold(c.Name, ref.Name) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Qual, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: ambiguous column reference %q", ref.String())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", ref.String())
	}
	return found, nil
}

// subqueryPlanner plans nested SELECTs (for IN subqueries).
type subqueryPlanner interface {
	planSubquery(sel *sqlparser.SelectStmt) (exec.Operator, Env, error)
}

// subqueryProbe forwards to sp and records whether the expressions
// compiled through it planned a subquery: their values then depend on
// tables other than the one they are evaluated over.
type subqueryProbe struct {
	sp   subqueryPlanner
	seen bool
}

func (p *subqueryProbe) planSubquery(sel *sqlparser.SelectStmt) (exec.Operator, Env, error) {
	if p.sp == nil {
		return nil, nil, fmt.Errorf("plan: subquery not allowed in this context")
	}
	p.seen = true
	return p.sp.planSubquery(sel)
}

// compiler turns AST expressions into exec.Scalar closures. The
// optional hook intercepts nodes before structural compilation; the
// aggregate binder uses it to rewrite aggregate calls and grouping
// expressions into references to the aggregation output row.
type compiler struct {
	env  Env
	sp   subqueryPlanner
	hook func(e sqlparser.Expr) (exec.Scalar, bool, error)
}

// compileScalar compiles an expression against env. Aggregate function
// calls are rejected; grouped queries compile through the agg binder.
func compileScalar(e sqlparser.Expr, env Env, sp subqueryPlanner) (exec.Scalar, error) {
	return (&compiler{env: env, sp: sp}).compile(e)
}

func (c *compiler) compile(e sqlparser.Expr) (exec.Scalar, error) {
	if c.hook != nil {
		if s, ok, err := c.hook(e); err != nil {
			return nil, err
		} else if ok {
			return s, nil
		}
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Val
		return func(types.Row) (types.Value, error) { return v, nil }, nil

	case *sqlparser.ColumnRef:
		idx, err := c.env.resolve(x)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) { return row[idx], nil }, nil

	case *sqlparser.UnaryExpr:
		inner, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil {
					return types.Value{}, err
				}
				return types.Arithmetic('-', types.Int(0), v)
			}, nil
		case "NOT":
			return func(row types.Row) (types.Value, error) {
				v, err := inner(row)
				if err != nil {
					return types.Value{}, err
				}
				if v.IsNull() {
					return types.Null(), nil
				}
				return types.Bool(!v.Truthy()), nil
			}, nil
		default:
			return nil, fmt.Errorf("plan: unknown unary operator %q", x.Op)
		}

	case *sqlparser.BinaryExpr:
		return c.compileBinary(x)

	case *sqlparser.BetweenExpr:
		ev, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(row types.Row) (types.Value, error) {
			v, err := ev(row)
			if err != nil {
				return types.Value{}, err
			}
			lv, err := lo(row)
			if err != nil {
				return types.Value{}, err
			}
			hv, err := hi(row)
			if err != nil {
				return types.Value{}, err
			}
			c1, err := types.Compare(v, lv)
			if err != nil {
				return types.Value{}, err
			}
			c2, err := types.Compare(v, hv)
			if err != nil {
				return types.Value{}, err
			}
			in := c1 >= 0 && c2 <= 0
			return types.Bool(in != neg), nil
		}, nil

	case *sqlparser.InExpr:
		return c.compileIn(x)

	case *sqlparser.FuncCall:
		if _, isAgg := exec.ParseAggKind(x.Name); isAgg {
			return nil, fmt.Errorf("plan: aggregate %s() is not allowed here", x.Name)
		}
		return c.compileScalarFunc(x)

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// compileScalarFunc compiles the built-in scalar functions: the date
// part extractors TPC-H queries need (year/month/day) and basic math.
func (c *compiler) compileScalarFunc(x *sqlparser.FuncCall) (exec.Scalar, error) {
	name := strings.ToLower(x.Name)
	arity := map[string]int{
		"year": 1, "month": 1, "day": 1,
		"abs": 1, "sqrt": 1, "floor": 1, "ceil": 1,
	}
	want, ok := arity[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown function %q", x.Name)
	}
	if x.Star || len(x.Args) != want {
		return nil, fmt.Errorf("plan: %s() takes exactly %d argument(s)", name, want)
	}
	arg, err := c.compile(x.Args[0])
	if err != nil {
		return nil, err
	}
	return func(row types.Row) (types.Value, error) {
		v, err := arg(row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		switch name {
		case "year", "month", "day":
			if v.Kind != types.KindDate {
				return types.Value{}, fmt.Errorf("plan: %s() requires a DATE argument, got %s", name, v.Kind)
			}
			y, m, d := types.CivilFromDays(v.I)
			switch name {
			case "year":
				return types.Int(int64(y)), nil
			case "month":
				return types.Int(int64(m)), nil
			default:
				return types.Int(int64(d)), nil
			}
		case "abs":
			if v.Kind == types.KindInt {
				if v.I < 0 {
					return types.Int(-v.I), nil
				}
				return v, nil
			}
			f, err := v.AsFloat()
			if err != nil {
				return types.Value{}, err
			}
			return types.Float(math.Abs(f)), nil
		default: // sqrt, floor, ceil
			f, err := v.AsFloat()
			if err != nil {
				return types.Value{}, err
			}
			switch name {
			case "sqrt":
				if f < 0 {
					return types.Value{}, fmt.Errorf("plan: sqrt of negative value")
				}
				return types.Float(math.Sqrt(f)), nil
			case "floor":
				return types.Float(math.Floor(f)), nil
			default:
				return types.Float(math.Ceil(f)), nil
			}
		}
	}, nil
}

func (c *compiler) compileBinary(x *sqlparser.BinaryExpr) (exec.Scalar, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+", "-", "*", "/":
		op := x.Op[0]
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			return types.Arithmetic(op, lv, rv)
		}, nil
	case "%":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			li, err := lv.AsInt()
			if err != nil {
				return types.Value{}, err
			}
			ri, err := rv.AsInt()
			if err != nil {
				return types.Value{}, err
			}
			if ri == 0 {
				return types.Value{}, fmt.Errorf("plan: modulo by zero")
			}
			return types.Int(li % ri), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			cmp, err := types.Compare(lv, rv)
			if err != nil {
				return types.Value{}, err
			}
			var out bool
			switch op {
			case "=":
				out = cmp == 0
			case "<>":
				out = cmp != 0
			case "<":
				out = cmp < 0
			case "<=":
				out = cmp <= 0
			case ">":
				out = cmp > 0
			case ">=":
				out = cmp >= 0
			}
			return types.Bool(out), nil
		}, nil
	case "AND":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return types.Bool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(lv.Truthy() && rv.Truthy()), nil
		}, nil
	case "OR":
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Value{}, err
			}
			if !lv.IsNull() && lv.Truthy() {
				return types.Bool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(lv.Truthy() || rv.Truthy()), nil
		}, nil
	default:
		return nil, fmt.Errorf("plan: unknown binary operator %q", x.Op)
	}
}

// compileIn compiles value-list and subquery IN predicates. Subqueries
// are planned eagerly but executed lazily, once, on first evaluation
// (the materialized set is then shared by every probe). Correlated
// subqueries are not supported.
func (c *compiler) compileIn(x *sqlparser.InExpr) (exec.Scalar, error) {
	probe, err := c.compile(x.E)
	if err != nil {
		return nil, err
	}
	neg := x.Neg

	if x.Sub != nil {
		if c.sp == nil {
			return nil, fmt.Errorf("plan: subquery not allowed in this context")
		}
		subOp, subEnv, err := c.sp.planSubquery(x.Sub)
		if err != nil {
			return nil, err
		}
		if len(subEnv) != 1 {
			return nil, fmt.Errorf("plan: IN subquery must return exactly one column, got %d", len(subEnv))
		}
		var set map[types.Value]bool
		return func(row types.Row) (types.Value, error) {
			if set == nil {
				rows, err := exec.Run(subOp)
				if err != nil {
					return types.Value{}, err
				}
				set = make(map[types.Value]bool, len(rows))
				for _, r := range rows {
					set[r[0].Key()] = true
				}
			}
			v, err := probe(row)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(set[v.Key()] != neg), nil
		}, nil
	}

	elems := make([]exec.Scalar, len(x.List))
	for i, le := range x.List {
		ce, err := c.compile(le)
		if err != nil {
			return nil, err
		}
		elems[i] = ce
	}
	return func(row types.Row) (types.Value, error) {
		v, err := probe(row)
		if err != nil {
			return types.Value{}, err
		}
		if v.IsNull() {
			return types.Null(), nil
		}
		for _, el := range elems {
			ev, err := el(row)
			if err != nil {
				return types.Value{}, err
			}
			cmp, err := types.Compare(v, ev)
			if err != nil {
				return types.Value{}, err
			}
			if cmp == 0 {
				return types.Bool(!neg), nil
			}
		}
		return types.Bool(neg), nil
	}, nil
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if _, ok := exec.ParseAggKind(x.Name); ok {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *sqlparser.UnaryExpr:
		return containsAggregate(x.E)
	case *sqlparser.BetweenExpr:
		return containsAggregate(x.E) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	case *sqlparser.InExpr:
		if containsAggregate(x.E) {
			return true
		}
		for _, l := range x.List {
			if containsAggregate(l) {
				return true
			}
		}
	}
	return false
}

// aggBinder compiles post-aggregation expressions (select items and
// HAVING) against the aggregation output layout:
//
//	[group₀ … group_{K-1}, agg₀ … agg_{M-1}]   (standard GROUP BY)
//	[agg₀ … agg_{M-1}]                          (similarity GROUP BY)
//
// Aggregate calls are deduplicated by matchKey (never when they hold a
// subquery); grouping expressions are matched the same way. Column
// references outside both are errors.
type aggBinder struct {
	baseEnv   Env // pre-aggregation input layout (for agg arguments)
	sp        subqueryPlanner
	groupKeys []string // matchKey of each grouping expression ("" entries disallow matching)
	aggBase   int      // index of agg₀ in the output row (K or 0)
	aggs      []exec.AggSpec
	aggKeys   []string // matchKey of each aggregate call ("" when it holds a subquery)
	// argSubquery records that some aggregate argument holds a subquery.
	argSubquery bool
}

// sig is the exec.SGB.AggSig of the binder's aggregates under the given
// sweep shape, or "" when an aggregate argument holds a subquery.
func (b *aggBinder) sig(epsList []float64, cube bool) string {
	if b.argSubquery {
		return ""
	}
	return aggSig(b.aggKeys, epsList, cube)
}

// aggSig spells an aggregate signature: the printed aggregate calls
// (quoted, so the list splits back unambiguously), the ε list, and the
// cube flag.
func aggSig(aggKeys []string, epsList []float64, cube bool) string {
	return fmt.Sprintf("%q|%v|%t", aggKeys, epsList, cube)
}

func (b *aggBinder) compile(e sqlparser.Expr) (exec.Scalar, error) {
	c := &compiler{env: nil, sp: b.sp, hook: b.hook}
	s, err := c.compile(e)
	if err != nil && strings.Contains(err.Error(), "unknown column") {
		return nil, fmt.Errorf("%v (it must appear in GROUP BY or inside an aggregate)", err)
	}
	return s, err
}

func (b *aggBinder) hook(e sqlparser.Expr) (exec.Scalar, bool, error) {
	// Grouping-expression match (standard GROUP BY only).
	printed, _ := matchKey(e)
	for i, gk := range b.groupKeys {
		if gk != "" && gk == printed {
			idx := i
			return func(row types.Row) (types.Value, error) { return row[idx], nil }, true, nil
		}
	}
	// Aggregate call.
	fc, ok := e.(*sqlparser.FuncCall)
	if !ok {
		return nil, false, nil
	}
	kind, isAgg := exec.ParseAggKind(fc.Name)
	if !isAgg {
		return nil, false, nil
	}
	if fc.Star {
		kind = exec.AggCountStar
	}
	// A call holding a subquery is never shared: its key does not say
	// which subquery it runs.
	key, exact := matchKey(fc)
	for i, k := range b.aggKeys {
		if exact && k == key {
			idx := b.aggBase + i
			return func(row types.Row) (types.Value, error) { return row[idx], nil }, true, nil
		}
	}
	spec := exec.AggSpec{Kind: kind}
	probe := &subqueryProbe{sp: b.sp}
	for _, arg := range fc.Args {
		cs, err := compileScalar(arg, b.baseEnv, probe)
		if err != nil {
			return nil, false, err
		}
		spec.Args = append(spec.Args, cs)
	}
	b.argSubquery = b.argSubquery || probe.seen || !exact
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	idx := b.aggBase + len(b.aggs)
	b.aggs = append(b.aggs, spec)
	if !exact {
		key = ""
	}
	b.aggKeys = append(b.aggKeys, key)
	return func(row types.Row) (types.Value, error) { return row[idx], nil }, true, nil
}

// matchKey renders e for matching expressions by meaning: function,
// column and operator names fold case, while literals keep theirs and
// carry their kind, so max(tag = 'A') and max(tag = 'a'), or sum(id*2)
// and sum(id*2.0), never share a key. exact is false when e holds a
// subquery, which the key names only as <subquery>.
func matchKey(e sqlparser.Expr) (key string, exact bool) {
	var sb strings.Builder
	exact = writeMatchKey(&sb, e)
	return sb.String(), exact
}

func writeMatchKey(sb *strings.Builder, e sqlparser.Expr) bool {
	exact := true
	sub := func(e sqlparser.Expr) {
		exact = writeMatchKey(sb, e) && exact
	}
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		sb.WriteString(strings.ToLower(x.String()))
	case *sqlparser.Literal:
		v := x.Val
		fmt.Fprintf(sb, "%s:%d:%s:%q:%t", v.Kind, v.I, strconv.FormatFloat(v.F, 'g', -1, 64), v.S, v.B)
	case *sqlparser.BinaryExpr:
		sb.WriteByte('(')
		sub(x.L)
		sb.WriteString(" " + strings.ToLower(x.Op) + " ")
		sub(x.R)
		sb.WriteByte(')')
	case *sqlparser.UnaryExpr:
		sb.WriteString("(" + strings.ToLower(x.Op) + " ")
		sub(x.E)
		sb.WriteByte(')')
	case *sqlparser.FuncCall:
		sb.WriteString(strings.ToLower(x.Name) + "(")
		if x.Star {
			sb.WriteByte('*')
		}
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sub(a)
		}
		sb.WriteByte(')')
	case *sqlparser.InExpr:
		sb.WriteByte('(')
		sub(x.E)
		if x.Neg {
			sb.WriteString(" not")
		}
		sb.WriteString(" in (")
		if x.Sub != nil {
			sb.WriteString("<subquery>")
			exact = false
		}
		for i, l := range x.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sub(l)
		}
		sb.WriteString("))")
	case *sqlparser.BetweenExpr:
		sb.WriteByte('(')
		sub(x.E)
		if x.Neg {
			sb.WriteString(" not")
		}
		sb.WriteString(" between ")
		sub(x.Lo)
		sb.WriteString(" and ")
		sub(x.Hi)
		sb.WriteByte(')')
	default:
		sb.WriteString(e.String())
		exact = false
	}
	return exact
}
