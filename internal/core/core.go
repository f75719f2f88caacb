package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/partition"
)

// Overlap selects the ON-OVERLAP arbitration semantics of SGB-All
// (Section 4.1). It is ignored by SGB-Any, where overlap merges groups.
type Overlap int

const (
	// JoinAny inserts an overlapping point into one randomly chosen
	// candidate group.
	JoinAny Overlap = iota
	// Eliminate discards overlapping points (all members of the overlap
	// set Oset are eliminated from the output).
	Eliminate
	// FormNewGroup collects overlapping points into a temporary set S′
	// and recursively runs SGB-All on S′ to form new groups.
	FormNewGroup
)

// String returns the SQL clause spelling of the overlap semantics.
func (o Overlap) String() string {
	switch o {
	case JoinAny:
		return "JOIN-ANY"
	case Eliminate:
		return "ELIMINATE"
	case FormNewGroup:
		return "FORM-NEW-GROUP"
	default:
		return fmt.Sprintf("Overlap(%d)", int(o))
	}
}

// Algorithm selects the evaluation strategy.
type Algorithm int

const (
	// AllPairs evaluates the similarity predicate against every
	// previously processed point (the paper's baseline; O(n²)).
	AllPairs Algorithm = iota
	// BoundsCheck maintains an ε-All bounding rectangle per group and
	// linearly scans group rectangles (Procedure 4; O(n·|G|)).
	BoundsCheck
	// OnTheFlyIndex additionally indexes the group rectangles (SGB-All,
	// Procedure 5) or the processed points (SGB-Any, Procedure 8) in an
	// R-tree (O(n·log|G|) / O(n log n) average case).
	OnTheFlyIndex
	// GridIndex replaces the R-tree with a uniform hash grid of ε-sized
	// cells: SGB-All registers each group's ε-All rectangle (side ≤ 2ε)
	// in the ≤3^d cells it covers, SGB-Any keeps processed points in
	// their home cell; probes scan the 3^d-cell neighborhood. Expected
	// O(1) per probe plus output size — the fastest strategy for the
	// fixed-radius queries the operators issue. The open-addressed
	// hashed-cell table supports any dimensionality, and SGB-Any inputs
	// are Morton (Z-order) preprocessed for probe locality (output ids
	// stay in input order); results are identical to the other
	// strategies for equal seeds at every d.
	GridIndex
)

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case AllPairs:
		return "All-Pairs"
	case BoundsCheck:
		return "Bounds-Checking"
	case OnTheFlyIndex:
		return "on-the-fly-Index"
	case GridIndex:
		return "ε-Grid"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures one similarity group-by evaluation.
type Options struct {
	// Metric is the Minkowski distance δ (geom.L2 or geom.LInf).
	Metric geom.Metric
	// Eps is the similarity threshold ε (must be > 0).
	Eps float64
	// Overlap is the SGB-All ON-OVERLAP clause; ignored by SGB-Any.
	Overlap Overlap
	// Algorithm selects the evaluation strategy (default AllPairs).
	Algorithm Algorithm
	// Seed seeds the JOIN-ANY arbitration PRNG; runs with equal seeds
	// and inputs produce identical groupings.
	Seed int64
	// Stats, when non-nil, accumulates operation counts for the run.
	Stats *Stats

	// Parallelism selects the worker count of the SGB-Any partition /
	// evaluate / merge pipeline. 0 (the default) means GOMAXPROCS,
	// engaged only for the GridIndex strategy and only once the input
	// is large enough to amortize the sharding overhead — explicitly
	// selected comparison strategies (All-Pairs, Bounds-Checking,
	// R-tree) keep their sequential evaluation shape so the paper's
	// strategy experiments measure what they name. 1 forces the
	// sequential path; any value ≥ 2 forces that many workers for any
	// strategy and input size. Negative values are rejected by
	// Validate. SGB-All ignores it and always runs the one sequential
	// arbitration loop. Groupings are bit-identical at every worker
	// count: SGB-Any components are order-independent.
	Parallelism int

	// IndexHysteresis tunes when the on-the-fly index refreshes a
	// group's (shrinking) ε-All rectangle: the stale entry is kept
	// while its area is at most this multiple of the true rectangle's
	// area. 0 selects the default (1.8); 1 reindexes on every change
	// (the paper's eager maintenance). Exposed for the ablation bench.
	IndexHysteresis float64
	// NoHullTest disables the Convex Hull Test of Procedure 6 and
	// refines L2 candidates by exact member scans instead. Exposed for
	// the ablation bench; results are identical either way.
	NoHullTest bool
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if !(o.Eps > 0) || math.IsInf(o.Eps, 1) {
		return errors.New("core: similarity threshold ε must be positive and finite")
	}
	if o.Metric != geom.L2 && o.Metric != geom.LInf {
		return errors.New("core: unknown distance metric")
	}
	switch o.Overlap {
	case JoinAny, Eliminate, FormNewGroup:
	default:
		return errors.New("core: unknown ON-OVERLAP clause")
	}
	switch o.Algorithm {
	case AllPairs, BoundsCheck, OnTheFlyIndex, GridIndex:
	default:
		return errors.New("core: unknown algorithm")
	}
	if o.Parallelism < 0 {
		return errors.New("core: Parallelism must be >= 0 (0 means GOMAXPROCS)")
	}
	return nil
}

// parallelThreshold is the input size below which Parallelism = 0
// (auto) keeps SGB-Any sequential: sharding a few thousand points
// costs more than it saves. An explicit Parallelism ≥ 2 bypasses the
// threshold, which is what the equivalence tests use to exercise the
// parallel pipeline on small inputs.
const parallelThreshold = 4096

// workers resolves the effective worker count for an input of n
// points. Auto mode (Parallelism = 0) engages only for GridIndex:
// requesting All-Pairs, Bounds-Checking, or the R-tree by name is a
// statement about which evaluation shape to run (the
// strategy-comparison experiments depend on it), so those stay
// sequential unless the caller explicitly asks for workers.
func (o Options) workers(n int) int {
	switch {
	case o.Parallelism == 1 || n < 2:
		return 1
	case o.Parallelism == 0 && (n < parallelThreshold || o.Algorithm != GridIndex):
		return 1
	}
	w := partition.Workers(o.Parallelism)
	if w > n {
		w = n
	}
	return w
}

// Stats counts the primitive operations a run performed; the Table 1
// complexity benches use these to verify the asymptotic claims
// empirically (distance computations dominate All-Pairs, rectangle
// tests dominate Bounds-Checking, index probes dominate the on-the-fly
// index).
type Stats struct {
	DistanceComputations int64 // ξ evaluations against concrete points
	RectTests            int64 // PointInRectangle / rectangle-overlap tests
	HullTests            int64 // convex-hull refinements (L2 only)
	IndexProbes          int64 // R-tree window queries
	IndexUpdates         int64 // R-tree inserts + deletes
	GroupsCreated        int64
	GroupMerges          int64 // SGB-Any merges
	RecursionDepth       int   // FORM-NEW-GROUP recursion depth reached

	// Per-phase wall-clock of the parallel SGB-Any pipeline (zero when
	// the run stayed sequential, and always zero for SGB-All). The split
	// shows where a worker sweep stops scaling: partition and merge are
	// the sequential residue, connect is the parallel section.
	PartitionNanos int64 // multi-axis ε-tile planning
	ConnectNanos   int64 // per-tile evaluate + frontier ε-edge probes
	// Deprecated: ArbitrateNanos is always 0 since SGB-All lost its
	// parallel arbitration phase; it is kept only for perfbench's
	// per-layer report.
	ArbitrateNanos int64
	MergeNanos     int64 // Union-Find reduction of tiles and frontier edges
}

func (s *Stats) addDist(n int64) {
	if s != nil {
		s.DistanceComputations += n
	}
}
func (s *Stats) addRect(n int64) {
	if s != nil {
		s.RectTests += n
	}
}
func (s *Stats) addHull(n int64) {
	if s != nil {
		s.HullTests += n
	}
}
func (s *Stats) addProbe(n int64) {
	if s != nil {
		s.IndexProbes += n
	}
}
func (s *Stats) addUpdate(n int64) {
	if s != nil {
		s.IndexUpdates += n
	}
}
func (s *Stats) addCreated(n int64) {
	if s != nil {
		s.GroupsCreated += n
	}
}
func (s *Stats) addMerge(n int64) {
	if s != nil {
		s.GroupMerges += n
	}
}
func (s *Stats) noteDepth(d int) {
	if s != nil && d > s.RecursionDepth {
		s.RecursionDepth = d
	}
}

// Phases of the parallel SGB-Any pipeline, for notePhase.
const (
	phasePartition = iota
	phaseConnect
	phaseMerge
)

// notePhase charges the wall-clock since *start to the given pipeline
// phase and advances *start — nil-safe like the counters.
func (s *Stats) notePhase(phase int, start *time.Time) {
	now := time.Now() //sgblint:allow determinism wall-clock feeds phase-timing stats only, never result rows
	if s != nil {
		d := now.Sub(*start).Nanoseconds()
		switch phase {
		case phasePartition:
			s.PartitionNanos += d
		case phaseConnect:
			s.ConnectNanos += d
		case phaseMerge:
			s.MergeNanos += d
		}
	}
	*start = now
}

// Merge folds another counter block into s: counters add, the
// recursion-depth high-water mark takes the max. The engine's shared
// evaluator cache uses it to aggregate per-entry work counters, and
// per-query blocks fold entry deltas through it.
func (s *Stats) Merge(o *Stats) { s.merge(o) }

// merge folds a worker-private Stats into s. Parallel stages hand each
// worker its own counter block so the hot path never shares cache
// lines; the coordinator merges after the workers join.
func (s *Stats) merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.DistanceComputations += o.DistanceComputations
	s.RectTests += o.RectTests
	s.HullTests += o.HullTests
	s.IndexProbes += o.IndexProbes
	s.IndexUpdates += o.IndexUpdates
	s.GroupsCreated += o.GroupsCreated
	s.GroupMerges += o.GroupMerges
	if o.RecursionDepth > s.RecursionDepth {
		s.RecursionDepth = o.RecursionDepth
	}
	s.PartitionNanos += o.PartitionNanos
	s.ConnectNanos += o.ConnectNanos
	s.MergeNanos += o.MergeNanos
}

// Group is one output group; Members are indices into the input slice,
// in the order the points joined the group.
type Group struct {
	Members []int
}

// Result is the outcome of a similarity group-by evaluation.
type Result struct {
	// Groups holds the output groups in creation order.
	Groups []Group
	// Eliminated lists input indices dropped by ON-OVERLAP ELIMINATE
	// (empty under other semantics), in elimination order.
	Eliminated []int
}

// NumGroups returns the number of output groups.
func (r *Result) NumGroups() int { return len(r.Groups) }

// Sizes returns the group cardinalities in group order (the multiset
// the paper's COUNT(*) example queries report).
func (r *Result) Sizes() []int {
	out := make([]int, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = len(g.Members)
	}
	return out
}

// checkInput validates points for dimensional consistency and returns
// the dimensionality (0 for an empty input).
func checkInput(points []geom.Point) (int, error) {
	if len(points) == 0 {
		return 0, nil
	}
	d := len(points[0])
	if d == 0 {
		return 0, errors.New("core: zero-dimensional point")
	}
	for i, p := range points {
		if len(p) != d {
			return 0, fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	return d, nil
}

// rng is a small deterministic PRNG (splitmix64) used for the JOIN-ANY
// arbitration; math/rand would also do, but an explicit generator keeps
// the operator self-contained and its state obvious.
//
// Draws are KEYED, not streamed: splitmix64 is a counter-based
// generator (the state advances by a fixed odd constant γ per step), so
// the k-th value of the stream is a pure function mix(state + (k+1)·γ)
// of the seed state. JOIN-ANY keys every draw by the drawing point's
// live rank (its position among the surviving points in arrival order)
// instead of consuming a shared sequential stream. The draws stay
// deterministic per (seed, point sequence) — and, crucially, they stop
// depending on HOW MANY other points happened to face a multi-candidate
// choice earlier, which is what lets the decremental path replay
// survivors bit-identically to a from-scratch run over them.
type rng struct{ state uint64 }

const splitmixGamma = 0x9E3779B97F4A7C15

func newRNG(seed int64) *rng { return &rng{state: uint64(seed)*splitmixGamma + 1} }

// drawAt returns the keyed uniform draw in [0, n) for key k ≥ 0: the
// (k+1)-th output of the splitmix64 stream seeded at r.state. r.state
// itself never advances.
func (r *rng) drawAt(k int, n int) int {
	z := r.state + (uint64(k)+1)*splitmixGamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}
