package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/sgb-db/sgb/internal/geom"
)

// The randomized parallel↔sequential equivalence suite: groupings must
// be member-for-member identical at every worker count across
// {L2, L∞} × d ∈ {1, 2, 3}. For SGB-Any that exercises the tiled
// pipeline under every algorithm; for SGB-All, which always runs the
// sequential arbitration loop, it pins the public contract that the
// output does not depend on Parallelism under all three ON-OVERLAP
// semantics (JOIN-ANY with equal seeds).

func randTestPoints(r *rand.Rand, n, d int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = r.Float64() * span
		}
		pts[i] = p
	}
	return pts
}

func trialsFor(t *testing.T) int {
	if testing.Short() {
		return 1
	}
	return 3
}

func TestParallelAnyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for trial := 0; trial < trialsFor(t); trial++ {
				n := 200 + r.Intn(300)
				pts := randTestPoints(r, n, d, 7)
				eps := 0.1 + r.Float64()*0.4
				seq, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: GridIndex, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range []Algorithm{AllPairs, OnTheFlyIndex, GridIndex} {
					for _, workers := range []int{2, 3, 8} {
						st := &Stats{}
						opt := Options{Metric: m, Eps: eps, Algorithm: alg, Parallelism: workers, Stats: st}
						got, err := SGBAny(pts, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Groups, seq.Groups) {
							t.Fatalf("d=%d metric=%v alg=%v workers=%d eps=%.3f: parallel grouping differs from sequential (%d vs %d groups)",
								d, m, alg, workers, eps, len(got.Groups), len(seq.Groups))
						}
					}
				}
			}
		}
	}
}

func TestParallelAllEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3} {
		for _, m := range []geom.Metric{geom.L2, geom.LInf} {
			for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
				for trial := 0; trial < trialsFor(t); trial++ {
					n := 150 + r.Intn(250)
					pts := randTestPoints(r, n, d, 6)
					eps := 0.15 + r.Float64()*0.5
					seed := r.Int63()
					base := Options{Metric: m, Eps: eps, Overlap: ov, Seed: seed}
					for _, alg := range []Algorithm{GridIndex, OnTheFlyIndex} {
						seqOpt := base
						seqOpt.Algorithm = alg
						seqOpt.Parallelism = 1
						seq, err := SGBAll(pts, seqOpt)
						if err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{0, 2, 5, 8} {
							parOpt := base
							parOpt.Algorithm = alg
							parOpt.Parallelism = workers
							got, err := SGBAll(pts, parOpt)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.Groups, seq.Groups) {
								t.Fatalf("d=%d metric=%v overlap=%v alg=%v workers=%d eps=%.3f seed=%d: groups differ",
									d, m, ov, alg, workers, eps, seed)
							}
							if !reflect.DeepEqual(got.Eliminated, seq.Eliminated) {
								t.Fatalf("d=%d metric=%v overlap=%v alg=%v workers=%d: eliminated sets differ",
									d, m, ov, alg, workers)
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelAnyMatchesComponents pins the parallel pipeline to the
// brute-force connected-components reference, not just to the
// sequential operator.
func TestParallelAnyMatchesComponents(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pts := randTestPoints(r, 400, 2, 6)
	const eps = 0.3
	want := ConnectedComponents(pts, geom.L2, eps)
	got, err := SGBAny(pts, Options{Metric: geom.L2, Eps: eps, Algorithm: GridIndex, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !SameGrouping(got.Groups, want) {
		t.Fatalf("parallel SGB-Any does not match connected components: %d vs %d groups", len(got.Groups), len(want))
	}
}

// TestParallelCliquesValid sanity-checks the SGB-All output invariants
// on the default (auto-parallelism) path directly (clique property,
// full accounting).
func TestParallelCliquesValid(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts := randTestPoints(r, 300, 2, 5)
	for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		res, err := SGBAll(pts, Options{Metric: geom.L2, Eps: 0.4, Overlap: ov, Algorithm: GridIndex, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckCliques(pts, geom.L2, 0.4, res); err != nil {
			t.Fatalf("overlap=%v: %v", ov, err)
		}
	}
}

func TestValidateParallelism(t *testing.T) {
	base := Options{Metric: geom.L2, Eps: 1}
	for _, p := range []int{0, 1, 8} {
		opt := base
		opt.Parallelism = p
		if err := opt.Validate(); err != nil {
			t.Fatalf("Parallelism=%d should validate: %v", p, err)
		}
	}
	opt := base
	opt.Parallelism = -1
	if err := opt.Validate(); err == nil {
		t.Fatal("Parallelism=-1 must be rejected")
	}
}

// TestParallelismAutoThreshold verifies the auto setting stays
// sequential below the input-size threshold and for explicitly
// selected comparison strategies — and that explicit worker counts
// always engage. (There is no dimensionality cap anymore: the hashed
// cell keys let auto parallelism engage at every d.)
func TestParallelismAutoThreshold(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1, Algorithm: GridIndex}
	if w := opt.workers(parallelThreshold - 1); w != 1 {
		t.Fatalf("auto below threshold: got %d workers, want 1", w)
	}
	for _, alg := range []Algorithm{AllPairs, BoundsCheck, OnTheFlyIndex} {
		o := opt
		o.Algorithm = alg
		if w := o.workers(1 << 20); w != 1 {
			t.Fatalf("auto must not override explicit %v: got %d workers", alg, w)
		}
	}
	opt.Parallelism = 2
	if w := opt.workers(100); w != 2 {
		t.Fatalf("explicit parallelism on small input: got %d workers, want 2", w)
	}
	opt.Algorithm = AllPairs
	if w := opt.workers(100); w != 2 {
		t.Fatalf("explicit parallelism must engage for any algorithm, got %d", w)
	}
	opt.Parallelism = 1
	opt.Algorithm = GridIndex
	if w := opt.workers(1 << 20); w != 1 {
		t.Fatalf("Parallelism=1 must force sequential, got %d", w)
	}
}

// TestParallelPhaseTimings pins the per-phase accounting of the
// parallel SGB-Any pipeline: a parallel run records wall-clock in the
// partition, connect and merge phases, a sequential run records none,
// SGB-All (which has no parallel pipeline) records none at any worker
// count, and merging worker stats folds the nanos.
func TestParallelPhaseTimings(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	pts := randTestPoints(r, 500, 2, 6)
	st := &Stats{}
	if _, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 0.4, Algorithm: GridIndex, Parallelism: 3, Stats: st}); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]int64{
		"partition": st.PartitionNanos,
		"connect":   st.ConnectNanos,
		"merge":     st.MergeNanos,
	} {
		if v <= 0 {
			t.Fatalf("parallel SGB-Any run recorded no %s time", name)
		}
	}
	noPhases := func(s *Stats) bool {
		return s.PartitionNanos == 0 && s.ConnectNanos == 0 && s.ArbitrateNanos == 0 && s.MergeNanos == 0
	}
	seqStats := &Stats{}
	if _, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 0.4, Algorithm: GridIndex, Parallelism: 1, Stats: seqStats}); err != nil {
		t.Fatal(err)
	}
	if !noPhases(seqStats) {
		t.Fatal("sequential SGB-Any run must not record parallel phase timings")
	}
	allStats := &Stats{}
	if _, err := SGBAll(pts, Options{Metric: geom.L2, Eps: 0.4, Overlap: JoinAny,
		Algorithm: GridIndex, Parallelism: 3, Seed: 1, Stats: allStats}); err != nil {
		t.Fatal(err)
	}
	if !noPhases(allStats) {
		t.Fatal("SGB-All must not record parallel phase timings")
	}
	var merged Stats
	merged.merge(st)
	merged.merge(st)
	if merged.PartitionNanos != 2*st.PartitionNanos || merged.ConnectNanos != 2*st.ConnectNanos ||
		merged.MergeNanos != 2*st.MergeNanos {
		t.Fatal("Stats.merge must fold phase nanos")
	}
}
