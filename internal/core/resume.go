package core

import (
	"errors"
	"fmt"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file holds the resumable arm of the operators: evaluation state
// that survives between calls so that new points can be appended to an
// existing grouping without recomputing it. The one-shot entry points
// (SGBAllSet / SGBAnySet) and the evaluators below share every
// per-point step — processOne for SGB-All, anyIndex.step for SGB-Any —
// so an incremental run over batches b1, b2, ... produces exactly the
// grouping of a one-shot run over their concatenation. (For SGB-All
// the retained state is bit-identical after the same point sequence;
// for SGB-Any under the grid strategy the Morton preprocessing sorts
// per batch rather than globally, so internal processing order may
// differ from one-shot — harmless, as components are order-independent
// and both sides report input-order ids in canonical order.)
//
// The companion work on order-independent SGB semantics (PAPERS.md:
// "On Order-independent Semantics of the Similarity Group-By
// Relational Database Operator") is what makes the SGB-Any half
// trivially sound: connected components are independent of arrival
// order, so the live ε-grid plus Union-Find just keeps absorbing
// points. SGB-All is order-SENSITIVE by design, but its processing
// order is exactly arrival order, which appends extend — the only
// subtlety is FORM-NEW-GROUP's end-of-input recursion, finalized on a
// throwaway clone so the retained main-pass state stays appendable.

// AllEvaluator is resumable SGB-All evaluation state: a retained
// sgbAllState (groups, finder structures, arbitration PRNG) that
// Append extends batch by batch. Appends evaluate sequentially with
// the strategy selected by the options (Options.Parallelism is
// ignored; batches are expected to be small relative to the retained
// set, which is where incremental maintenance pays off). Remove
// (decremental.go) deletes points by replaying the arbitration over
// the survivors — SGB-All is order- and presence-sensitive, so that
// replay is the only maintenance that stays bit-identical to a
// from-scratch run.
type AllEvaluator struct {
	st *sgbAllState

	// live holds the stored indices of the surviving points in arrival
	// order; a point's public id is its index in live. nil means the
	// identity over [0, st.points.Len()) — nothing removed yet.
	// (SGB-All never Morton-reorders, so stored order is arrival
	// order.)
	live []int32
	// dead counts tombstoned stored indices; when they outnumber the
	// live points, Remove compacts the point log before replaying.
	dead int
}

// NewAllEvaluator returns an empty resumable SGB-All evaluation over
// dims-dimensional points.
func NewAllEvaluator(dims int, opt Options) (*AllEvaluator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if dims < 1 {
		return nil, errors.New("core: evaluator dimensionality must be >= 1")
	}
	st := &sgbAllState{
		points: geom.NewPointSet(dims),
		opt:    opt,
		dims:   dims,
		rand:   newRNG(opt.Seed),
	}
	st.finder = newFinder(st)
	return &AllEvaluator{st: st}, nil
}

// Len returns the number of live points (appended and not removed).
func (e *AllEvaluator) Len() int {
	if e.live != nil {
		return len(e.live)
	}
	return e.st.points.Len()
}

// LiveAt returns the point with live id i (the id space Result and
// Remove use). The view is read-only and valid until the next
// mutation.
func (e *AllEvaluator) LiveAt(i int) geom.Point {
	if e.live != nil {
		return e.st.points.At(int(e.live[i]))
	}
	return e.st.points.At(i)
}

// materializeLive switches the identity mapping to an explicit one at
// the first removal.
func (e *AllEvaluator) materializeLive() {
	if e.live != nil {
		return
	}
	e.live = make([]int32, e.st.points.Len(), e.st.points.Len()+16)
	for i := range e.live {
		e.live[i] = int32(i)
	}
}

// Append absorbs a batch of points (copied into the evaluator's own
// storage) and advances the grouping exactly as a one-shot run would
// have, had the batch been the next stretch of its input. Under
// FORM-NEW-GROUP the points deferred into S′ accumulate across
// appends and are only resolved by Result, mirroring the one-shot
// operator's end-of-input recursion.
func (e *AllEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	st := e.st
	if ps.Dims() != st.dims {
		return fmt.Errorf("core: appended points have dimension %d, want %d", ps.Dims(), st.dims)
	}
	if err := ps.CheckFinite(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	base := st.points.Len()
	st.points.AppendSet(ps)
	n := st.points.Len()
	for i := base; i < n; i++ {
		st.pointGroup = append(st.pointGroup, -1)
		if e.live != nil {
			e.live = append(e.live, int32(i))
			// A point appended after removals draws at its live rank,
			// exactly as a from-scratch run over the survivors plus this
			// batch would key it.
			st.rank = append(st.rank, int32(len(e.live)-1))
		}
	}
	for pi := base; pi < n; pi++ {
		st.processOne(pi)
	}
	return nil
}

// Result materializes the current grouping, equivalent to a one-shot
// evaluation over every live point in arrival order (identical groups
// and member order; identical PRNG draws under JOIN-ANY for equal
// seeds). Under FORM-NEW-GROUP the deferred set is resolved on a clone
// of the retained state, so calling Result neither perturbs future
// appends nor later Results — but it does replay that recursion each
// call (and re-counts it into Options.Stats, when attached). Member
// and Eliminated ids are live ids — compact indices over the surviving
// points in arrival order, exactly as a from-scratch run over them
// would number its input. The returned result owns its slices.
func (e *AllEvaluator) Result() *Result {
	st := e.st
	if st.opt.Overlap == FormNewGroup && len(st.deferred) > 0 {
		st = st.finalizeClone()
		next := st.deferred
		st.deferred = nil
		st.run(next, 1)
	}
	res := materializeAll(st, true)
	if e.live != nil {
		// Stored indices → live ids. Only live indices can appear: the
		// post-removal replay processed nothing else.
		idx := make([]int32, e.st.points.Len())
		for k, pos := range e.live {
			idx[pos] = int32(k)
		}
		for _, g := range res.Groups {
			for mi, m := range g.Members {
				g.Members[mi] = int(idx[m])
			}
		}
		for i, m := range res.Eliminated {
			res.Eliminated[i] = int(idx[m])
		}
	}
	return res
}

// finalizeClone snapshots the main-pass state deeply enough that the
// FORM-NEW-GROUP recursion can run to completion on the copy without
// touching the retained originals: group structs are copied (the
// recursion's stageReset clears their index-registration flags, and
// frozen groups are otherwise immutable at depth ≥ 1), bookkeeping
// slices are copied (the recursion appends groups and placements),
// and the finder is rebuilt fresh (equivalent to the stageReset the
// recursion performs first thing). Points are shared read-only.
func (st *sgbAllState) finalizeClone() *sgbAllState {
	cl := &sgbAllState{
		points:     st.points,
		opt:        st.opt,
		dims:       st.dims,
		rand:       &rng{state: st.rand.state},
		groups:     make([]*group, len(st.groups)),
		stageFloor: st.stageFloor,
		eliminated: append([]int(nil), st.eliminated...),
		deferred:   append([]int(nil), st.deferred...),
		pointGroup: append([]int32(nil), st.pointGroup...),
		rank:       st.rank, // read-only: the recursion only draws through it
		rects:      append([]float64(nil), st.rects...),
	}
	for i, g := range st.groups {
		if g == nil {
			continue
		}
		g2 := *g
		// The grid registration range must not share backing with the
		// retained group (the copy above is shallow; these were value
		// arrays before the slice-keyed grid).
		g2.gridLo = append([]int64(nil), g.gridLo...)
		g2.gridHi = append([]int64(nil), g.gridHi...)
		cl.groups[i] = &g2
		// Rebind the copy's rectangle views into the clone's own rect
		// store, so the recursion's appends cannot alias the retained
		// rows.
		cl.bindRectRow(cl.groups[i])
	}
	cl.finder = newFinder(cl)
	return cl
}

// materializeAll extracts the output groups of an SGB-All state in
// creation order. With copyOut the result owns every slice (the
// resumable path must not alias live state the next Append mutates);
// the one-shot path hands over the state's slices directly.
func materializeAll(st *sgbAllState, copyOut bool) *Result {
	res := &Result{}
	for _, g := range st.groups {
		if g == nil || len(g.members) == 0 {
			continue
		}
		members := g.members
		if copyOut {
			members = append([]int(nil), members...)
		}
		res.Groups = append(res.Groups, Group{Members: members})
	}
	if copyOut {
		res.Eliminated = append([]int(nil), st.eliminated...)
	} else {
		res.Eliminated = st.eliminated
	}
	return res
}

// AnyEvaluator is resumable SGB-Any evaluation state: the live
// Points_IX (ε-grid, R-tree, or nothing for All-Pairs) plus the
// Union-Find forest, both of which support appends naturally. Because
// connected components are order-independent, the incremental result
// is exactly the one-shot result over the concatenated input —
// per-append cost is proportional to the batch's probe work, not the
// retained set size. Remove (decremental.go) deletes points again:
// components can only split, never merge, when a point vanishes, so a
// deletion reclusters just the victims' components.
//
// Under the grid strategy each appended batch is Morton (Z-order)
// preprocessed like the one-shot path: the batch's points are absorbed
// in Z-order of their ε-cells, and live remembers the arrival order of
// the stored positions so Result reports input-order ids. Reordering
// within a batch is sound for the same reason appending is: components
// do not depend on arrival order.
type AnyEvaluator struct {
	opt    Options
	points *geom.PointSet // append-only log; removals tombstone via alive
	uf     *unionfind.UF  // forest over stored positions (incl. dead)
	ix     anyIndex

	// live holds the stored positions of the surviving points in
	// arrival order; a point's public id is its index in live (so ids
	// compact after removals exactly as a from-scratch evaluation over
	// the survivors would number them). nil means the identity over
	// [0, points.Len()): every batch arrived in order and nothing was
	// removed.
	live []int32
	// alive flags stored positions (nil = everything alive). The
	// All-Pairs strategy reads it through a shared pointer, since it has
	// no index to unregister dead points from.
	alive []bool
	// dead counts tombstoned stored positions; when they outnumber the
	// live points, compact rebuilds the evaluator over the survivors so
	// steady-state windowed workloads hold memory proportional to the
	// window, not the history.
	dead int

	// Reusable Remove scratch: mark is an epoch-stamped visited array
	// over stored positions (the ε-graph BFS), queue its frontier, nbuf
	// the per-node neighbor buffer.
	mark      []uint32
	markEpoch uint32
	queue     []int32
	nbuf      []int32
}

// NewAnyEvaluator returns an empty resumable SGB-Any evaluation over
// dims-dimensional points.
func NewAnyEvaluator(dims int, opt Options) (*AnyEvaluator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if dims < 1 {
		return nil, errors.New("core: evaluator dimensionality must be >= 1")
	}
	if opt.Algorithm == BoundsCheck {
		return nil, ErrBoundsCheckAny
	}
	e := &AnyEvaluator{
		opt:    opt,
		points: geom.NewPointSet(dims),
		uf:     &unionfind.UF{},
	}
	e.ix = e.newIndex(dims, 0)
	return e, nil
}

// newIndex instantiates the Points_IX strategy, wiring the All-Pairs
// variant to the evaluator's liveness bitmap (the other strategies
// unregister deleted points from their index instead).
func (e *AnyEvaluator) newIndex(dims, sizeHint int) anyIndex {
	ix := newAnyIndex(dims, sizeHint, e.opt)
	if _, ok := ix.(anyAllPairs); ok {
		ix = anyAllPairs{alive: &e.alive}
	}
	return ix
}

// Len returns the number of live points (appended and not removed).
func (e *AnyEvaluator) Len() int { return e.points.Len() - e.dead }

// LiveAt returns the point with live id i (the id space Result and
// Remove use). The view is read-only and valid until the next
// mutation.
func (e *AnyEvaluator) LiveAt(i int) geom.Point {
	if e.live != nil {
		return e.points.At(int(e.live[i]))
	}
	return e.points.At(i)
}

// materializeLive switches the identity mapping to an explicit one —
// the first Morton-reordered batch or the first removal needs it.
func (e *AnyEvaluator) materializeLive() {
	if e.live != nil {
		return
	}
	e.live = make([]int32, e.points.Len(), e.points.Len()+16)
	for i := range e.live {
		e.live[i] = int32(i)
	}
}

// Append absorbs a batch of points (copied into the evaluator's own
// storage): each point probes the live index for its within-ε
// neighbors, merges their components, and registers itself — the same
// step the one-shot evaluation runs.
func (e *AnyEvaluator) Append(ps *geom.PointSet) error {
	if ps == nil || ps.Len() == 0 {
		return nil
	}
	if ps.Dims() != e.points.Dims() {
		return fmt.Errorf("core: appended points have dimension %d, want %d", ps.Dims(), e.points.Dims())
	}
	if err := ps.CheckFinite(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	base := e.points.Len()
	batch := ps
	if bperm := mortonPermFor(ps, e.opt); bperm != nil {
		batch = ps.Gather(bperm)
		e.materializeLive()
		// Arrival order of the reordered batch: position base+j holds
		// the batch point bperm[j], so arrival offset o lives at the
		// position the inverse permutation names.
		inv := make([]int32, len(bperm))
		for j, orig := range bperm {
			inv[orig] = int32(j)
		}
		for _, j := range inv {
			e.live = append(e.live, int32(base)+j)
		}
	} else if e.live != nil {
		for k := 0; k < ps.Len(); k++ {
			e.live = append(e.live, int32(base+k))
		}
	}
	if e.alive != nil {
		for k := 0; k < ps.Len(); k++ {
			e.alive = append(e.alive, true)
		}
	}
	e.points.AppendSet(batch)
	for i := base; i < e.points.Len(); i++ {
		e.uf.Add()
		e.ix.step(e.points, i, e.opt, e.uf)
	}
	return nil
}

// Result materializes the current connected components in the same
// deterministic order as the one-shot operator (groups by smallest
// member index, members ascending, ids in original arrival order over
// the live points — the Morton reordering of grid-strategy batches and
// any removals are invisible here). The returned result owns its
// slices; calling Result repeatedly or interleaving it with Append and
// Remove is safe.
func (e *AnyEvaluator) Result() *Result {
	if e.live == nil {
		return &Result{Groups: groupsFromUF(e.uf, e.points.Len())}
	}
	return &Result{Groups: groupsFromUFLive(e.uf, e.live)}
}
