// Package exec implements the Volcano-style (iterator) executor that
// plays the role of PostgreSQL's executor in the paper's prototype:
// sequential scans, filters, projections, hash joins, standard hash
// aggregation, sorting, and the two similarity group-by operator nodes
// (see sgb.go). Operators consume compiled scalar closures rather than
// AST nodes; the planner (internal/plan) produces both.
//
// The SGB node is blocking, like the paper's: ELIMINATE and
// FORM-NEW-GROUP can only be finalized "after processing the complete
// dataset", so Open materializes the input into a tuple store, extracts
// the grouping attributes into a flat geom.PointSet, runs the operator
// core, and folds the configured aggregates over each output group.
// When its Hook is set (the engine's evaluator cache, installed by the
// planner for bare single-table scans), the node skips the tuple
// store: it hands the scan snapshot to the hook, which extracts points
// only for rows its cached state has not absorbed and returns an
// Answer shared by every query at that table generation. The Answer
// must equal the one-shot evaluation, so aggregation is oblivious to
// how the groups were obtained; the node memoizes the rows it folds
// on the Answer, keyed by its aggregate signature.
//
// Invariants: operators follow the Open / Next (nil row = exhausted) /
// Close contract, may be re-Opened after Close, and never mutate input
// rows they did not allocate.
package exec
