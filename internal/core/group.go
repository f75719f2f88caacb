package core

import (
	"math"

	"github.com/sgb-db/sgb/internal/convexhull"
	"github.com/sgb-db/sgb/internal/geom"
)

// group is the runtime state of one SGB-All group (the paper's
// AggHashEntry extension: a tuple store plus the ε-All bounding
// rectangle of Definition 5, plus the cached convex hull used by the L2
// refinement of Procedure 6).
type group struct {
	id      int
	members []int // input indices in join order

	// epsRect is the ε-All bounding rectangle R_{ε-All}: the
	// intersection of every member's ε-box. Under L∞ a point inside
	// epsRect is within ε of all members (exact test); under L2 the
	// rectangle is a conservative filter (Figure 7b) refined by the
	// convex-hull test. It is maintained in place (ShrinkToEpsBox), so
	// nothing else may alias its corner storage. Its corners are views
	// into the state's flat rect-row store (see sgbAllState.rects).
	epsRect geom.Rect

	// mbr is the minimum bounding rectangle of the members themselves,
	// used by the overlap-rectangle filter: a point can only be within
	// ε of some member if its ε-box intersects mbr. Because members of
	// a clique group are pairwise within ε, mbr ⊆ epsRect always holds.
	// Like epsRect, its corners view the flat rect-row store.
	mbr geom.Rect

	// indexedRect remembers the exact rectangle currently stored in
	// Groups_IX so delete-before-reinsert removes the right entry.
	indexedRect geom.Rect
	indexed     bool

	// gridLo/gridHi remember the cell range this group's ε-All
	// rectangle is currently registered under in the ε-grid (GridIndex
	// strategy), so registration updates remove exactly the old cells.
	// Allocated once at first registration and updated in place.
	gridLo, gridHi []int64
	gridOn         bool

	// hull caches the 2-D convex hull for the L2 refinement; it is
	// rebuilt lazily after membership changes.
	hull      *convexhull.Hull
	hullDirty bool
}

// sgbAllState carries the evolving group set plus the evaluation
// context shared by all SGB-All strategies.
type sgbAllState struct {
	points *geom.PointSet
	opt    Options
	dims   int

	groups []*group // live groups, in creation order (nil = deleted)
	finder finder   // strategy: populates candidate & overlap sets
	rand   *rng

	// rects is the flat structure-of-arrays store of the group probe
	// rectangles: group id g owns the row
	// rects[g*4d : (g+1)*4d] = [ε-All Min | ε-All Max | MBR Min | MBR Max].
	// Each group's epsRect and mbr corners are views into its row, so
	// the in-place maintenance (ShrinkToEpsBox, ExtendPoint) writes the
	// flat array directly, while the grid finder's filter step scans
	// rows by id without dereferencing group structs — the probe loop's
	// former cache-miss hot spot. Rows of removed groups are poisoned
	// with +Inf so no rectangle test can pass them.
	rects []float64

	// groupBlocks backs allocGroup: group structs pooled in fixed-size
	// blocks (stable addresses, one allocation per block).
	groupBlocks [][]group

	// stageFloor freezes groups created before the current
	// FORM-NEW-GROUP recursion stage: points of the deferred set S′
	// form new groups among themselves only (Example 1 puts the
	// overlapping point a5 into a fresh singleton group g3 even though
	// it is within ε of g1 and g2). Groups with id < stageFloor are
	// invisible to candidate and overlap detection.
	stageFloor int

	eliminated []int // points dropped by ELIMINATE
	deferred   []int // S′: points deferred by FORM-NEW-GROUP

	// pointGroup maps each placed input index to the id of the group
	// currently holding it (-1 while unplaced, eliminated, or
	// deferred). Maintenance is one store per placement, so the
	// strategies pay nothing measurable for it.
	pointGroup []int32

	// rank maps stored point index → live rank (the point's position
	// among the surviving points in arrival order), the key of its
	// JOIN-ANY draw. nil means the identity: stored order IS live order,
	// which holds for every one-shot run and for evaluators that never
	// removed a point. The decremental replay populates it so a
	// replayed survivor draws with the same key a from-scratch run over
	// the survivors would use.
	rank []int32

	hullPts     []geom.Point       // scratch member-point views for hull rebuilds
	hullScratch convexhull.Scratch // reusable sort/chain buffers for hull rebuilds
}

// drawKey returns the JOIN-ANY draw key of stored point pi: its live
// rank.
func (st *sgbAllState) drawKey(pi int) int {
	if st.rank != nil {
		return int(st.rank[pi])
	}
	return pi
}

// eliminatePoint records m as dropped by ELIMINATE.
func (st *sgbAllState) eliminatePoint(m int) {
	st.eliminated = append(st.eliminated, m)
}

// deferPoint records m as deferred into the FORM-NEW-GROUP set S′.
func (st *sgbAllState) deferPoint(m int) {
	st.deferred = append(st.deferred, m)
}

// finder abstracts FindCloseGroups over the strategies.
type finder interface {
	// findCloseGroups fills candidates with groups pi may join (the
	// similarity predicate holds against every member) and, when the
	// overlap clause requires it, overlaps with groups where the
	// predicate holds for at least one but not all members. The
	// returned slices are only valid until the next findCloseGroups
	// call (finders reuse them across probes).
	findCloseGroups(st *sgbAllState, pi int) (candidates, overlaps []*group)
	// groupInserted / groupChanged / groupRemoved keep any auxiliary
	// structure (the R-tree or the ε-grid) synchronized with group
	// mutations.
	groupCreated(st *sgbAllState, g *group)
	groupChanged(st *sgbAllState, g *group)
	groupRemoved(st *sgbAllState, g *group)
	// stageReset marks the start of a FORM-NEW-GROUP recursion stage:
	// every existing group is frozen (invisible to candidacy), so any
	// auxiliary structure can be cleared rather than queried and
	// filtered. Groups frozen by a stage are never mutated again.
	stageReset(st *sgbAllState)
}

// rectStride is the flat rect-row width: two rectangles of two corners.
func (st *sgbAllState) rectStride() int { return 4 * st.dims }

// bindRectRow points g's rectangle views at its row of the flat store.
func (st *sgbAllState) bindRectRow(g *group) {
	d := st.dims
	base := g.id * st.rectStride()
	row := st.rects[base : base+4*d : base+4*d]
	g.epsRect.Min = geom.Point(row[0*d : 1*d : 1*d])
	g.epsRect.Max = geom.Point(row[1*d : 2*d : 2*d])
	g.mbr.Min = geom.Point(row[2*d : 3*d : 3*d])
	g.mbr.Max = geom.Point(row[3*d : 4*d : 4*d])
}

// newRectRow appends g's row to the flat store and initializes it for
// the singleton {p}. When the append would move the backing array,
// every live group's views are rebound first — amortized O(1) per
// group over the geometric growth.
func (st *sgbAllState) newRectRow(g *group, p geom.Point) {
	stride := st.rectStride()
	if len(st.rects)+stride > cap(st.rects) {
		newCap := 2 * cap(st.rects)
		if min := 64 * stride; newCap < min {
			newCap = min
		}
		grown := make([]float64, len(st.rects), newCap)
		copy(grown, st.rects)
		st.rects = grown
		for _, og := range st.groups {
			if og != nil {
				st.bindRectRow(og)
			}
		}
	}
	st.rects = st.rects[:len(st.rects)+stride]
	st.bindRectRow(g)
	st.initRectRow(g, p)
}

// initRectRow resets g's rectangles to the singleton {p}: the ε-All
// rectangle is p's ε-box, the member MBR degenerates to p.
func (st *sgbAllState) initRectRow(g *group, p geom.Point) {
	eps := st.opt.Eps
	for i, v := range p {
		g.epsRect.Min[i], g.epsRect.Max[i] = v-eps, v+eps
		g.mbr.Min[i], g.mbr.Max[i] = v, v
	}
}

// poisonRectRow makes every rectangle test fail for a removed group,
// so a stale id can never survive the filter step.
func (st *sgbAllState) poisonRectRow(g *group) {
	g.epsRect.Min[0] = math.Inf(1)
	g.mbr.Min[0] = math.Inf(1)
}

// allocGroup hands out group structs from fixed-size blocks: one
// allocation per groupBlockSize groups instead of one each, and blocks
// never move, so the *group pointers held in st.groups and the finder
// buffers stay valid for the state's lifetime.
func (st *sgbAllState) allocGroup() *group {
	const groupBlockSize = 128
	if n := len(st.groupBlocks); n == 0 || len(st.groupBlocks[n-1]) == cap(st.groupBlocks[n-1]) {
		st.groupBlocks = append(st.groupBlocks, make([]group, 0, groupBlockSize))
	}
	blk := &st.groupBlocks[len(st.groupBlocks)-1]
	*blk = append(*blk, group{})
	return &(*blk)[len(*blk)-1]
}

// newGroupFor creates a fresh singleton group for point pi.
func (st *sgbAllState) newGroupFor(pi int) *group {
	p := st.points.At(pi)
	g := st.allocGroup()
	g.id = len(st.groups)
	g.members = append(g.members, pi)
	st.newRectRow(g, p)
	g.hullDirty = true
	st.groups = append(st.groups, g)
	st.pointGroup[pi] = int32(g.id)
	st.opt.Stats.addCreated(1)
	st.finder.groupCreated(st, g)
	return g
}

// insert adds pi to g and maintains the ε-All rectangle invariant:
// the rectangle shrinks to the intersection with pi's ε-box
// (Figures 5c–5e) in place — no allocation on the per-point hot path.
// Maintenance is O(1) per insert, as the paper notes.
func (st *sgbAllState) insert(pi int, g *group) {
	p := st.points.At(pi)
	g.members = append(g.members, pi)
	st.pointGroup[pi] = int32(g.id)
	g.epsRect.ShrinkToEpsBox(p, st.opt.Eps)
	g.mbr.ExtendPoint(p)
	// The cached convex hull stays valid when the new member lies
	// inside it — the common case in dense groups, and the reason the
	// hull refinement's amortized cost stays near the paper's
	// O(log log k) per test instead of an O(k log k) rebuild per insert.
	if g.hullDirty || g.hull == nil || len(p) != 2 || !g.hull.Contains(p) {
		g.hullDirty = true
	}
	st.finder.groupChanged(st, g)
}

// removeMembers deletes the given input indices from g, rebuilding the
// group's rectangles from the surviving members (removals can only
// grow the ε-All rectangle, so an incremental update is impossible).
// Empty groups are dropped. Used by ELIMINATE and FORM-NEW-GROUP
// overlap processing.
func (st *sgbAllState) removeMembers(g *group, victims map[int]bool) {
	kept := g.members[:0]
	for _, m := range g.members {
		if !victims[m] {
			kept = append(kept, m)
		} else {
			st.pointGroup[m] = -1
		}
	}
	g.members = kept
	if len(g.members) == 0 {
		st.groups[g.id] = nil
		st.poisonRectRow(g)
		st.finder.groupRemoved(st, g)
		return
	}
	st.initRectRow(g, st.points.At(g.members[0]))
	for _, m := range g.members[1:] {
		p := st.points.At(m)
		g.epsRect.ShrinkToEpsBox(p, st.opt.Eps)
		g.mbr.ExtendPoint(p)
	}
	g.hullDirty = true
	st.finder.groupChanged(st, g)
}

// hullOf returns the cached convex hull of g, rebuilding it if stale.
// Only meaningful in two dimensions.
func (st *sgbAllState) hullOf(g *group) *convexhull.Hull {
	if g.hullDirty || g.hull == nil {
		pts := st.hullPts[:0]
		for _, m := range g.members {
			pts = append(pts, st.points.At(m))
		}
		st.hullPts = pts
		if g.hull == nil {
			g.hull = &convexhull.Hull{}
		}
		// Rebuild in place: the group's vertex storage and the state's
		// sort/chain scratch are both reused, so large-group rebuilds
		// stop allocating once the buffers have grown.
		st.hullScratch.ComputeInto(g.hull, pts)
		g.hullDirty = false
	}
	return g.hull
}

// classifyGroup runs the Procedure 4–6 verification sequence for one
// group surfaced by a finder's filter step: the PointInRectangleTest
// against the ε-All rectangle plus exact refinement decides candidacy;
// otherwise the OverlapRectangleTest against the member MBR plus a
// member scan decides overlap. It appends gj to cands or ovs and
// returns both. Shared by every bounds-based finder (Bounds-Checking,
// R-tree, ε-grid) so the strategies cannot drift apart.
func (st *sgbAllState) classifyGroup(pi int, gj *group, p geom.Point, pBox *geom.Rect, needOverlap bool, cands, ovs []*group) ([]*group, []*group) {
	st.opt.Stats.addRect(1)
	if gj.epsRect.Contains(p) && st.refine(pi, gj) {
		return append(cands, gj), ovs
	}
	if !needOverlap {
		return cands, ovs
	}
	st.opt.Stats.addRect(1)
	if pBox.Intersects(gj.mbr) && st.overlapsWith(pi, gj) {
		ovs = append(ovs, gj)
	}
	return cands, ovs
}

// isCandidate reports whether pi may join g: the similarity predicate
// must hold against every member. The strategy-independent exact check;
// bounds-based strategies call it only for refinement.
func (st *sgbAllState) isCandidate(pi int, g *group) bool {
	p := st.points.At(pi)
	metric, eps := st.opt.Metric, st.opt.Eps
	for _, m := range g.members {
		st.opt.Stats.addDist(1)
		if !metric.Within(p, st.points.At(m), eps) {
			return false
		}
	}
	return true
}

// overlapsWith reports whether pi is within ε of at least one member of
// g (the OverlapGroups membership criterion, given pi is not a
// candidate).
func (st *sgbAllState) overlapsWith(pi int, g *group) bool {
	p := st.points.At(pi)
	metric, eps := st.opt.Metric, st.opt.Eps
	for _, m := range g.members {
		st.opt.Stats.addDist(1)
		if metric.Within(p, st.points.At(m), eps) {
			return true
		}
	}
	return false
}
