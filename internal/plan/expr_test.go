package plan

import (
	"testing"

	"github.com/sgb-db/sgb/internal/sqlparser"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// exprCatalog builds a single-table catalog for expression tests.
func exprCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "a", Type: types.KindInt},
		{Name: "b", Type: types.KindInt},
		{Name: "s", Type: types.KindText},
		{Name: "f", Type: types.KindFloat},
	})
	tbl.MustInsert(types.Row{types.Int(1), types.Int(10), types.Text("x"), types.Float(1.5)})
	tbl.MustInsert(types.Row{types.Int(2), types.Int(20), types.Text("y"), types.Float(-2.5)})
	tbl.MustInsert(types.Row{types.Int(3), types.Int(30), types.Null(), types.Null()})
	if err := cat.Create(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func queryVals(t *testing.T, cat *storage.Catalog, sql string) []types.Row {
	t.Helper()
	rows, _ := runQuery(t, cat, sql)
	return rows
}

func TestComparisonOperators(t *testing.T) {
	cat := exprCatalog(t)
	cases := []struct {
		where string
		want  int
	}{
		{"a = 2", 1},
		{"a <> 2", 2},
		{"a != 2", 2},
		{"a < 2", 1},
		{"a <= 2", 2},
		{"a > 2", 1},
		{"a >= 2", 2},
		{"a BETWEEN 2 AND 3", 2},
		{"a NOT BETWEEN 2 AND 3", 1},
		{"a IN (1, 3)", 2},
		{"a NOT IN (1, 3)", 1},
		{"NOT a = 1", 2},
		{"a = 1 OR a = 3", 2},
		{"a = 1 AND b = 10", 1},
		{"a = 1 AND b = 20", 0},
		{"TRUE", 3},
		{"FALSE", 0},
	}
	for _, c := range cases {
		rows := queryVals(t, cat, "SELECT a FROM t WHERE "+c.where)
		if len(rows) != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, len(rows), c.want)
		}
	}
}

func TestNullComparisonSemantics(t *testing.T) {
	cat := exprCatalog(t)
	// s IS NULL on row 3: comparisons with NULL are not TRUE, so the
	// row never qualifies, even under NOT.
	if rows := queryVals(t, cat, "SELECT a FROM t WHERE s = 'x'"); len(rows) != 1 {
		t.Errorf("null =: %d rows", len(rows))
	}
	if rows := queryVals(t, cat, "SELECT a FROM t WHERE NOT s = 'x'"); len(rows) != 1 {
		t.Errorf("null NOT: %d rows", len(rows))
	}
	if rows := queryVals(t, cat, "SELECT a FROM t WHERE s IN ('x', 'y')"); len(rows) != 2 {
		t.Errorf("null IN: %d rows", len(rows))
	}
	// NULL propagates through arithmetic.
	rows := queryVals(t, cat, "SELECT f + 1 FROM t WHERE a = 3")
	if !rows[0][0].IsNull() {
		t.Errorf("NULL arithmetic = %v", rows[0][0])
	}
}

func TestArithmeticExpressions(t *testing.T) {
	cat := exprCatalog(t)
	rows := queryVals(t, cat, "SELECT a + b * 2, b / 4, b % 3, -a FROM t WHERE a = 2")
	r := rows[0]
	if r[0].I != 42 {
		t.Errorf("a+b*2 = %v", r[0])
	}
	if r[1].F != 5 {
		t.Errorf("b/4 = %v", r[1])
	}
	if r[2].I != 2 {
		t.Errorf("b%%3 = %v", r[2])
	}
	if r[3].I != -2 {
		t.Errorf("-a = %v", r[3])
	}
	mustFail(t, cat, "SELECT b % 0 FROM t", "modulo")
	mustFail(t, cat, "SELECT b / 0 FROM t", "division")
	mustFail(t, cat, "SELECT s + 1 FROM t WHERE a = 1", "numeric")
	mustFail(t, cat, "SELECT s < 1 FROM t WHERE a = 1", "compare")
}

func TestInSubqueryMultiColumnRejected(t *testing.T) {
	cat := exprCatalog(t)
	mustFail(t, cat, "SELECT a FROM t WHERE a IN (SELECT a, b FROM t)", "one column")
}

func TestNotInSubquery(t *testing.T) {
	cat := exprCatalog(t)
	rows := queryVals(t, cat,
		"SELECT a FROM t WHERE a NOT IN (SELECT a FROM t WHERE b >= 20)")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("not-in subquery = %v", rows)
	}
}

func TestExplicitJoinWithResidualOn(t *testing.T) {
	cat := exprCatalog(t)
	two := storage.NewTable("u", storage.Schema{
		{Name: "a", Type: types.KindInt},
		{Name: "tag", Type: types.KindText},
	})
	two.MustInsert(types.Row{types.Int(1), types.Text("one")})
	two.MustInsert(types.Row{types.Int(2), types.Text("two")})
	if err := cat.Create(two); err != nil {
		t.Fatal(err)
	}
	// ON carries an equi key plus a residual condition.
	rows := queryVals(t, cat, `
		SELECT tag FROM t JOIN u ON t.a = u.a AND t.b > 10`)
	if len(rows) != 1 || rows[0][0].S != "two" {
		t.Fatalf("join residual = %v", rows)
	}
	// Pure cross join via nested loops (no equi keys at all).
	rows = queryVals(t, cat, "SELECT count(*) FROM t, u WHERE t.b > u.a")
	if rows[0][0].I != 6 {
		t.Fatalf("cross count = %v", rows)
	}
}

func TestDistinctThroughPlanner(t *testing.T) {
	cat := exprCatalog(t)
	rows := queryVals(t, cat, "SELECT DISTINCT b / 10 FROM t ORDER BY 1")
	if len(rows) != 3 {
		t.Fatalf("distinct = %v", rows)
	}
	rows = queryVals(t, cat, "SELECT DISTINCT 1 FROM t")
	if len(rows) != 1 {
		t.Fatalf("distinct const = %v", rows)
	}
}

func TestSplitConjuncts(t *testing.T) {
	sel, err := sqlparser.ParseSelect("SELECT 1 FROM t WHERE a = 1 AND (b = 2 AND s = 'x') AND f > 0")
	if err != nil {
		t.Fatal(err)
	}
	cj := splitConjuncts(sel.Where)
	if len(cj) != 4 {
		t.Fatalf("conjuncts = %d", len(cj))
	}
	// OR is not split.
	sel, _ = sqlparser.ParseSelect("SELECT 1 FROM t WHERE a = 1 OR b = 2")
	if got := splitConjuncts(sel.Where); len(got) != 1 {
		t.Fatalf("OR split = %d", len(got))
	}
}

func TestContainsAggregate(t *testing.T) {
	cases := map[string]bool{
		"count(*)":               true,
		"sum(a) + 1":             true,
		"1 + 2":                  false,
		"a BETWEEN 1 AND max(b)": true,
		"a IN (1, min(b))":       true,
		"NOT max(a) > 1":         true,
		"abs(a)":                 false,
		"year(a)":                false,
	}
	for src, want := range cases {
		sel, err := sqlparser.ParseSelect("SELECT " + src + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if got := containsAggregate(sel.Items[0].Expr); got != want {
			t.Errorf("containsAggregate(%q) = %v", src, got)
		}
	}
}

func TestSGBOverlapClausesThroughPlanner(t *testing.T) {
	cat := storage.NewCatalog()
	pts := storage.NewTable("pts", storage.Schema{
		{Name: "x", Type: types.KindFloat},
		{Name: "y", Type: types.KindFloat},
	})
	for _, p := range [][2]float64{{2, 5}, {3, 6}, {7, 5}, {8, 6}, {5, 4}} {
		pts.MustInsert(types.Row{types.Float(p[0]), types.Float(p[1])})
	}
	if err := cat.Create(pts); err != nil {
		t.Fatal(err)
	}
	for clause, wantGroups := range map[string]int{
		"ON-OVERLAP JOIN-ANY":       2,
		"ON-OVERLAP ELIMINATE":      2,
		"ON-OVERLAP FORM-NEW-GROUP": 3,
	} {
		rows := queryVals(t, cat, `SELECT count(*) FROM pts
			GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 `+clause)
		if len(rows) != wantGroups {
			t.Errorf("%s: %d groups, want %d", clause, len(rows), wantGroups)
		}
	}
	// HAVING over the SGB output.
	rows := queryVals(t, cat, `SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3
		ON-OVERLAP FORM-NEW-GROUP HAVING count(*) > 1`)
	if len(rows) != 2 {
		t.Errorf("SGB having = %v", rows)
	}
}

func TestMatchKey(t *testing.T) {
	key := func(src string) (string, bool) {
		t.Helper()
		sel, err := sqlparser.ParseSelect("SELECT " + src + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return matchKey(sel.Items[0].Expr)
	}
	cases := []struct {
		a, b string
		same bool
	}{
		{"max(s = 'x')", "MAX(S = 'x')", true},
		{"sum(t.a * 2)", "SUM(T.A * 2)", true},
		{"a NOT BETWEEN 1 AND 2", "a not between 1 and 2", true},
		{"max(s = 'x')", "max(s = 'X')", false},
		{"sum(a * 2)", "sum(a * 2.0)", false},
		{"a IN (1, 2)", "a NOT IN (1, 2)", false},
		{"count(*)", "count(a)", false},
	}
	for _, c := range cases {
		ka, _ := key(c.a)
		kb, _ := key(c.b)
		if (ka == kb) != c.same {
			t.Errorf("matchKey(%q) = %q, matchKey(%q) = %q; want same=%v", c.a, ka, c.b, kb, c.same)
		}
	}
	if _, exact := key("max(a IN (SELECT b FROM t))"); exact {
		t.Error("matchKey of a subquery call is exact")
	}
	if _, exact := key("max(a IN (1, 2))"); !exact {
		t.Error("matchKey of a value-list call is not exact")
	}
}

func TestGroupKeyMatchKeepsLiteralCase(t *testing.T) {
	cat := exprCatalog(t)
	// The select item differs from the grouping expression in a text
	// literal's case, so it is not that grouping column.
	mustFail(t, cat, "SELECT s = 'X', count(*) FROM t GROUP BY s = 'x'", "GROUP BY")
	rows := queryVals(t, cat, "SELECT S = 'x', count(*) FROM t GROUP BY s = 'x' ORDER BY 2")
	if len(rows) != 3 {
		t.Fatalf("got %v, want 3 groups", rows)
	}
}
