package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/unionfind"
)

// This file is the persistence boundary of the resumable evaluators:
// ExportState copies the LOGICAL evaluation state — points, liveness,
// components or group membership, PRNG position — into plain slices a
// checkpoint writer can serialize, and the Restore constructors rebuild
// a working evaluator from such a snapshot. Derived structures (the
// SGB-Any Points_IX, the SGB-All finder, rect rows, hulls, Union-Find
// scratch) are deliberately NOT serialized: they are recomputed on
// restore from the logical state through the same registration steps
// the live evaluator runs, which keeps the on-disk format small and
// independent of index implementation details.
//
// Equivalence guarantees (exercised by persist_test.go):
//
//   - SGB-Any: components are order-independent, and restore re-adds
//     every live point to a fresh index, so a restored evaluator is
//     observationally identical to the original — same Results, same
//     behavior under further Append/Remove.
//   - SGB-All: arbitration depends on group ids, candidate enumeration
//     order, and the PRNG stream. Restore preserves all three — group
//     ids keep their creation-order numbering (deleted-group holes
//     included), finders enumerate candidates in id order, rect rows
//     are recomputed from members with the same order-insensitive
//     min/max folds, and the splitmix64 state resumes exactly — so a
//     restored evaluator replays future appends bit-identically.

// AnyState is the portable snapshot of an AnyEvaluator. All slices are
// owned by the state (ExportState copies out; Restore copies in).
type AnyState struct {
	Opt  Options // Stats stripped: counters are not evaluation state
	Dims int
	Data []float64 // flat coordinates of every stored point, stride Dims

	Live  []int32 // stored positions in arrival order; nil = identity
	Alive []bool  // liveness per stored position; nil = all alive
	Dead  int     // tombstone count (= number of false flags in Alive)

	UFParent []int32 // Union-Find forest over stored positions
	UFRank   []int8
	UFCount  int
}

// ExportState snapshots the evaluator's logical state. The evaluator
// remains usable; later mutations do not affect the snapshot.
func (e *AnyEvaluator) ExportState() *AnyState {
	opt := e.opt
	opt.Stats = nil
	parent, rank, count := e.uf.Snapshot()
	return &AnyState{
		Opt:      opt,
		Dims:     e.points.Dims(),
		Data:     append([]float64(nil), e.points.Data()...),
		Live:     append([]int32(nil), e.live...),
		Alive:    append([]bool(nil), e.alive...),
		Dead:     e.dead,
		UFParent: parent,
		UFRank:   rank,
		UFCount:  count,
	}
}

// RestoreAnyEvaluator rebuilds a resumable SGB-Any evaluation from a
// snapshot: the points and the Union-Find forest are adopted, and every
// live point is re-registered in a freshly built Points_IX. Corrupt
// snapshots (out-of-range positions, inconsistent liveness) are
// rejected rather than trusted — a checksummed checkpoint should never
// produce one, but recovery code must not panic on its inputs.
func RestoreAnyEvaluator(s *AnyState) (*AnyEvaluator, error) {
	opt := s.Opt
	opt.Stats = nil
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Algorithm == BoundsCheck {
		return nil, ErrBoundsCheckAny
	}
	if s.Dims < 1 {
		return nil, errors.New("core: restore: dims must be >= 1")
	}
	if len(s.Data)%s.Dims != 0 {
		return nil, fmt.Errorf("core: restore: %d coordinates is not a multiple of dims %d", len(s.Data), s.Dims)
	}
	n := len(s.Data) / s.Dims
	uf, ok := unionfind.Restore(
		append([]int32(nil), s.UFParent...),
		append([]int8(nil), s.UFRank...),
		s.UFCount)
	if !ok || uf.Len() != n {
		return nil, errors.New("core: restore: corrupt union-find snapshot")
	}
	if s.Dead != 0 && s.Alive == nil {
		// The index rebuild needs the bitmap to skip tombstones.
		return nil, errors.New("core: restore: dead count without liveness bitmap")
	}
	live, alive, err := checkLiveness(n, s.Live, s.Alive, s.Dead)
	if err != nil {
		return nil, err
	}
	e := &AnyEvaluator{
		opt:    opt,
		points: geom.Wrap(s.Dims, append([]float64(nil), s.Data...)),
		uf:     uf,
		live:   live,
		alive:  alive,
		dead:   s.Dead,
	}
	if err := e.points.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	// Rebuild Points_IX by registering every live stored position —
	// components are already known, so add (no probing) suffices,
	// mirroring the storage-compaction rebuild.
	e.ix = e.newIndex(s.Dims, n)
	for i := 0; i < n; i++ {
		if alive == nil || alive[i] {
			e.ix.add(e.points, i, e.opt)
		}
	}
	return e, nil
}

// AllState is the portable snapshot of an AllEvaluator.
type AllState struct {
	Opt  Options // Stats stripped
	Dims int
	Data []float64 // flat coordinates of every stored point, stride Dims

	Live []int32 // stored indices in arrival order; nil = identity
	Dead int

	// RandState is the splitmix64 seed state of the JOIN-ANY PRNG.
	// Draws are keyed per live rank (core.go: rng.drawAt), so this is a
	// constant of the evaluation — the seed base, not a stream cursor —
	// but it is still state: Options.Seed alone does not reconstruct it
	// for snapshots taken by future format versions.
	RandState  uint64
	StageFloor int     // FORM-NEW-GROUP stage freeze floor
	Eliminated []int32 // stored indices dropped by ELIMINATE
	Deferred   []int32 // S′: stored indices deferred by FORM-NEW-GROUP

	// Groups holds each group's member list (stored indices, join
	// order) at its creation-order id; an empty entry is the hole of a
	// deleted group. Holes are preserved because ids feed candidate
	// ordering and the stage floor — renumbering would change
	// arbitration.
	Groups [][]int32
}

// ExportState snapshots the evaluator's logical state. The evaluator
// remains usable; later mutations do not affect the snapshot.
func (e *AllEvaluator) ExportState() *AllState {
	st := e.st
	opt := st.opt
	opt.Stats = nil
	s := &AllState{
		Opt:        opt,
		Dims:       st.dims,
		Data:       append([]float64(nil), st.points.Data()...),
		Live:       append([]int32(nil), e.live...),
		Dead:       e.dead,
		RandState:  st.rand.state,
		StageFloor: st.stageFloor,
		Eliminated: toInt32(st.eliminated),
		Deferred:   toInt32(st.deferred),
		Groups:     make([][]int32, len(st.groups)),
	}
	for i, g := range st.groups {
		if g == nil {
			continue // hole: stays an empty entry
		}
		s.Groups[i] = toInt32(g.members)
	}
	return s
}

// RestoreAllEvaluator rebuilds a resumable SGB-All evaluation from a
// snapshot. Group structs, rect rows (order-insensitive min/max folds
// over the members, so bit-identical to the originals), the pointGroup
// map, and the finder registrations are all recomputed; the convex
// hull caches start dirty and rebuild lazily. Corrupt snapshots are
// rejected, not trusted.
func RestoreAllEvaluator(s *AllState) (*AllEvaluator, error) {
	opt := s.Opt
	opt.Stats = nil
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if s.Dims < 1 {
		return nil, errors.New("core: restore: dims must be >= 1")
	}
	if len(s.Data)%s.Dims != 0 {
		return nil, fmt.Errorf("core: restore: %d coordinates is not a multiple of dims %d", len(s.Data), s.Dims)
	}
	n := len(s.Data) / s.Dims
	live, _, err := checkLiveness(n, s.Live, nil, s.Dead)
	if err != nil {
		return nil, err
	}
	if s.StageFloor < 0 || s.StageFloor > len(s.Groups) {
		return nil, errors.New("core: restore: stage floor out of range")
	}
	st := &sgbAllState{
		points:     geom.Wrap(s.Dims, append([]float64(nil), s.Data...)),
		opt:        opt,
		dims:       s.Dims,
		rand:       &rng{state: s.RandState},
		stageFloor: s.StageFloor,
		eliminated: toInt(s.Eliminated, n),
		deferred:   toInt(s.Deferred, n),
	}
	if st.eliminated == nil && len(s.Eliminated) > 0 || st.deferred == nil && len(s.Deferred) > 0 {
		return nil, errors.New("core: restore: eliminated/deferred index out of range")
	}
	if err := st.points.CheckFinite(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	st.pointGroup = make([]int32, n)
	for i := range st.pointGroup {
		st.pointGroup[i] = -1
	}
	if live != nil {
		// Rebuild the stored-index → live-rank map the JOIN-ANY draws
		// key on (identical to the one the decremental replay builds).
		st.rank = make([]int32, n)
		for i := range st.rank {
			st.rank[i] = -1
		}
		for k, pos := range live {
			st.rank[pos] = int32(k)
		}
	}
	// Rebuild the group set at its original ids: rect rows are sized for
	// every id up front (holes get poisoned rows, exactly as removal
	// leaves them), member folds recompute the ε-All rectangle and MBR.
	stride := 4 * s.Dims
	st.rects = make([]float64, len(s.Groups)*stride)
	st.groups = make([]*group, 0, len(s.Groups))
	for id, members := range s.Groups {
		if len(members) == 0 {
			st.groups = append(st.groups, nil)
			st.rects[id*stride] = math.Inf(1)          // poisoned ε-All Min[0]
			st.rects[id*stride+2*s.Dims] = math.Inf(1) // poisoned MBR Min[0]
			continue
		}
		g := st.allocGroup()
		g.id = id
		g.members = make([]int, 0, len(members))
		for _, m := range members {
			if m < 0 || int(m) >= n {
				return nil, fmt.Errorf("core: restore: group %d member %d out of range", id, m)
			}
			if st.pointGroup[m] != -1 {
				return nil, fmt.Errorf("core: restore: point %d in two groups", m)
			}
			g.members = append(g.members, int(m))
			st.pointGroup[m] = int32(id)
		}
		st.bindRectRow(g)
		st.initRectRow(g, st.points.At(g.members[0]))
		for _, m := range g.members[1:] {
			p := st.points.At(m)
			g.epsRect.ShrinkToEpsBox(p, opt.Eps)
			g.mbr.ExtendPoint(p)
		}
		g.hullDirty = true
		st.groups = append(st.groups, g)
	}
	// Register the live groups with a fresh finder, in creation order —
	// the same sequence of groupCreated calls a replayed run would make.
	st.finder = newFinder(st)
	for _, g := range st.groups {
		if g != nil {
			st.finder.groupCreated(st, g)
		}
	}
	return &AllEvaluator{st: st, live: live, dead: s.Dead}, nil
}

// checkLiveness validates the live/alive/dead triple of a snapshot
// against n stored positions and returns defensive copies.
func checkLiveness(n int, live []int32, alive []bool, dead int) ([]int32, []bool, error) {
	if alive != nil && len(alive) != n {
		return nil, nil, errors.New("core: restore: liveness bitmap length mismatch")
	}
	deadSeen := 0
	for _, a := range alive {
		if !a {
			deadSeen++
		}
	}
	if alive != nil && deadSeen != dead {
		return nil, nil, errors.New("core: restore: dead count does not match liveness bitmap")
	}
	if live == nil {
		if dead != 0 {
			return nil, nil, errors.New("core: restore: tombstones without a live mapping")
		}
		return nil, copyBools(alive), nil
	}
	if len(live) != n-dead {
		return nil, nil, errors.New("core: restore: live mapping length mismatch")
	}
	seen := make([]bool, n)
	for _, pos := range live {
		if pos < 0 || int(pos) >= n || seen[pos] {
			return nil, nil, errors.New("core: restore: corrupt live mapping")
		}
		if alive != nil && !alive[pos] {
			return nil, nil, errors.New("core: restore: live mapping names a dead position")
		}
		seen[pos] = true
	}
	return append([]int32(nil), live...), copyBools(alive), nil
}

func copyBools(b []bool) []bool {
	if b == nil {
		return nil
	}
	return append([]bool(nil), b...)
}

func toInt32(xs []int) []int32 {
	if xs == nil {
		return nil
	}
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// toInt widens back, rejecting out-of-range indices with a nil return
// (the caller raises the error; n bounds the valid index space).
func toInt(xs []int32, n int) []int {
	if xs == nil {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		if x < 0 || int(x) >= n {
			return nil
		}
		out[i] = int(x)
	}
	return out
}
