package exec

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// Scalar is a compiled scalar expression evaluated against a row.
type Scalar func(types.Row) (types.Value, error)

// Operator is a Volcano iterator. Next returns a nil row at end of
// stream. Rows returned by Next are owned by the caller.
type Operator interface {
	Open() error
	Next() (types.Row, error)
	Close() error
}

// Run drains op and returns all rows (Open/Close included).
func Run(op Operator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// SeqScan scans an in-memory table. Open captures the table's
// snapshot (rows + generation) in one coherent read, so the scan —
// and everything computed from it — observes exactly one table state
// even while concurrent statements mutate the table.
type SeqScan struct {
	Table *storage.Table
	rows  []types.Row
	gen   int64
	pos   int
}

// Open captures the table snapshot and resets the scan.
func (s *SeqScan) Open() error {
	s.rows, s.gen = s.Table.Snapshot()
	s.pos = 0
	return nil
}

// Snapshot returns the rows and generation Open captured. The
// similarity group-by node reads them directly: its cache hook keys
// shared evaluator state to that exact table version (reading
// Table.Generation at grouping time instead would race with
// concurrent mutations).
func (s *SeqScan) Snapshot() ([]types.Row, int64) { return s.rows, s.gen }

// Next returns the next snapshot row. The returned slice aliases table
// storage; downstream operators treat rows as immutable.
func (s *SeqScan) Next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// Close is a no-op.
func (s *SeqScan) Close() error { return nil }

// ValuesOp emits a fixed set of rows (used for tests and VALUES).
type ValuesOp struct {
	Rows []types.Row
	pos  int
}

// Open rewinds to the first literal row.
func (v *ValuesOp) Open() error { v.pos = 0; return nil }

// Next emits the literal rows in order.
func (v *ValuesOp) Next() (types.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	return row, nil
}

// Close is a no-op.
func (v *ValuesOp) Close() error { return nil }

// Filter emits input rows for which Pred is TRUE.
type Filter struct {
	Input Operator
	Pred  Scalar
}

// Open opens the input.
func (f *Filter) Open() error { return f.Input.Open() }

// Close closes the input.
func (f *Filter) Close() error { return f.Input.Close() }

// Next emits the next input row whose predicate is truthy.
func (f *Filter) Next() (types.Row, error) {
	for {
		row, err := f.Input.Next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := f.Pred(row)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return row, nil
		}
	}
}

// Project computes one output value per expression.
type Project struct {
	Input Operator
	Exprs []Scalar
}

// Open opens the input.
func (p *Project) Open() error { return p.Input.Open() }

// Close closes the input.
func (p *Project) Close() error { return p.Input.Close() }

// Next evaluates the projection expressions over the next input row.
func (p *Project) Next() (types.Row, error) {
	row, err := p.Input.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Limit emits at most N rows.
type Limit struct {
	Input Operator
	N     int64
	seen  int64
}

// Open opens the input and resets the row budget.
func (l *Limit) Open() error { l.seen = 0; return l.Input.Open() }

// Close closes the input.
func (l *Limit) Close() error { return l.Input.Close() }

// Next passes rows through until N have been emitted.
func (l *Limit) Next() (types.Row, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	row, err := l.Input.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Distinct removes duplicate rows (full-row comparison).
type Distinct struct {
	Input Operator
	seen  map[string]bool
}

// Open opens the input and clears the seen-row set.
func (d *Distinct) Open() error {
	d.seen = make(map[string]bool)
	return d.Input.Open()
}

// Close closes the input.
func (d *Distinct) Close() error { return d.Input.Close() }

// Next emits input rows whose encoded form has not been seen.
func (d *Distinct) Next() (types.Row, error) {
	for {
		row, err := d.Input.Next()
		if err != nil || row == nil {
			return nil, err
		}
		key := rowKey(row)
		if !d.seen[key] {
			d.seen[key] = true
			return row, nil
		}
	}
}

// rowKey builds a hashable row identity (numeric kinds canonicalized).
func rowKey(row types.Row) string {
	var b strings.Builder
	for _, v := range row {
		k := v.Key()
		fmt.Fprintf(&b, "%d:%v|", int(k.Kind), k)
	}
	return b.String()
}

// SortKey is one ORDER BY key over the input row.
type SortKey struct {
	Expr Scalar
	Desc bool
}

// Sort materializes and sorts its input.
type Sort struct {
	Input Operator
	Keys  []SortKey
	rows  []types.Row
	pos   int
}

// Open materializes and sorts the entire input.
func (s *Sort) Open() error {
	s.pos = 0
	s.rows = nil
	if err := s.Input.Open(); err != nil {
		return err
	}
	defer s.Input.Close()
	type keyed struct {
		row  types.Row
		keys []types.Value
	}
	var all []keyed
	for {
		row, err := s.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		ks := make([]types.Value, len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Expr(row)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		all = append(all, keyed{row: row, keys: ks})
	}
	var sortErr error
	sort.SliceStable(all, func(i, j int) bool {
		for k := range s.Keys {
			c, err := types.Compare(all[i].keys[k], all[j].keys[k])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c == 0 {
				continue
			}
			if s.Keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows = make([]types.Row, len(all))
	for i, k := range all {
		s.rows[i] = k.row
	}
	return nil
}

// Next emits the sorted rows in order.
func (s *Sort) Next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// Close releases the sorted materialization.
func (s *Sort) Close() error { s.rows = nil; return nil }
