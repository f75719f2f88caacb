package main

import (
	"fmt"

	sgb "github.com/sgb-db/sgb"
)

// referenceSettings evaluate a query with a different strategy than
// any workload uses — the on-the-fly R-tree on one worker — whose
// output the engine's equivalence suites prove identical to the
// ε-grid's at every worker count. A new session is one-shot
// (incremental off) already; SET incremental = off is not issued
// because it clears the shared evaluator cache of every session.
var referenceSettings = []string{"SET algorithm = index", "SET parallelism = 1"}

// references computes the reference answer of every SELECT of a
// read-only workload and checks the warm-up answers against them. It
// returns the answer each timed SELECT must equal: the reference for
// adhoc, the warm-up answer (which equals the reference) for
// serve-read. serve-mixed answers change with its writes and are
// checked after the run instead (finish).
func references(b *bench) (func(sel int) *sgb.Rows, []string, error) {
	if b.w.mixed {
		return nil, nil, nil
	}
	refs, err := oneShotAnswers(b)
	if err != nil {
		return nil, nil, err
	}
	var problems []string
	for i, q := range b.w.selects {
		if !sameRows(b.warm[i], refs[i]) {
			problems = append(problems, fmt.Sprintf("warm-up answer of %s differs from the reference", q.name()))
		}
	}
	if len(b.w.settings) == 0 {
		return func(sel int) *sgb.Rows { return refs[sel] }, problems, nil
	}
	return func(sel int) *sgb.Rows { return b.warm[sel] }, problems, nil
}

// oneShotAnswers evaluates every SELECT of the workload with the
// reference settings.
func oneShotAnswers(b *bench) ([]*sgb.Rows, error) {
	s, err := configure(b.db, referenceSettings)
	if err != nil {
		return nil, err
	}
	var out []*sgb.Rows
	for _, q := range b.w.selects {
		rows, err := s.Query(q.sql)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name(), err)
		}
		out = append(out, rows)
	}
	return out, nil
}

// epilogueWrites is the number of INSERT and of DELETE statements the
// serve-mixed workload logs after its post-run checkpoint, so that
// every run's restart replays the same WAL tail.
const epilogueWrites = 8

// finish runs the post-loop checks and leaves the directory the
// restart measurement reopens. It returns the answer the first SELECT
// after a restart must give.
//
//   - serve-read: the timed phase must not have computed a single
//     distance in the evaluator cache (every SELECT was a hit).
//   - serve-mixed: every maintained answer equals the reference answer
//     over the final table, and the row count equals loaded + inserted
//     − deleted. Then it checkpoints and logs a fixed tail of
//     epilogueWrites inserts and deletes, and checks again.
func finish(b *bench, loop *loopResult, want func(sel int) *sgb.Rows) (*sgb.Rows, []string, error) {
	w := b.w
	if !w.mixed {
		var problems []string
		if len(w.settings) > 0 && loop.cacheDistanceDelta != 0 {
			problems = append(problems, fmt.Sprintf("cached SELECTs computed %d distances, want 0", loop.cacheDistanceDelta))
		}
		return want(0), problems, nil
	}
	problems, err := checkMixed(b, tableRows+loop.inserted-loop.deleted)
	if err != nil {
		return nil, nil, err
	}
	conn, st := b.conns[0], loop.streams[0]
	if _, err := conn.Exec("CHECKPOINT"); err != nil {
		return nil, nil, err
	}
	inserted, deleted := loop.inserted, loop.deleted
	for i := 0; i < epilogueWrites; i++ {
		for _, s := range []stmt{st.insert(), st.delete()} {
			n, err := conn.Exec(s.sql)
			if err != nil {
				return nil, nil, fmt.Errorf("epilogue: %w", err)
			}
			if n != s.count {
				problems = append(problems, fmt.Sprintf("epilogue %s affected %d rows, want %d", s.kind, n, s.count))
			}
			if s.kind == kindInsert {
				inserted += n
			} else {
				deleted += n
			}
		}
	}
	more, err := checkMixed(b, tableRows+inserted-deleted)
	if err != nil {
		return nil, nil, err
	}
	first, err := conn.Query(w.selects[0].sql)
	if err != nil {
		return nil, nil, err
	}
	return first, append(problems, more...), nil
}

// checkMixed compares every maintained answer with the reference
// answer over the current table and the table's row count with want.
func checkMixed(b *bench, wantRows int) ([]string, error) {
	var problems []string
	refs, err := oneShotAnswers(b)
	if err != nil {
		return nil, err
	}
	for i, q := range b.w.selects {
		got, err := b.conns[0].Query(q.sql)
		if err != nil {
			return nil, fmt.Errorf("maintained %s: %w", q.name(), err)
		}
		if !sameRows(got, refs[i]) {
			problems = append(problems, fmt.Sprintf("maintained answer of %s differs from the reference over the final table", q.name()))
		}
	}
	n, err := b.db.TableLen("clustered")
	if err != nil {
		return nil, err
	}
	if n != wantRows {
		problems = append(problems, fmt.Sprintf("clustered holds %d rows, want loaded + inserted - deleted = %d", n, wantRows))
	}
	return problems, nil
}
