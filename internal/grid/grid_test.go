package grid

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/sgb-db/sgb/internal/geom"
)

func TestCellOfQuantization(t *testing.T) {
	g := New(2, 0.5)
	cases := []struct {
		p    []float64
		want []int64
	}{
		{[]float64{0, 0}, []int64{0, 0}},
		{[]float64{0.49, 0.99}, []int64{0, 1}},
		{[]float64{0.5, 1.0}, []int64{1, 2}},
		{[]float64{-0.01, -0.5}, []int64{-1, -1}},
		{[]float64{-0.51, 2.3}, []int64{-2, 4}},
	}
	for _, c := range cases {
		if got := g.CellOf(c.p, nil); !slices.Equal(got, c.want) {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAddRemoveCollect(t *testing.T) {
	g := New(2, 1)
	c := []int64{3, 4}
	g.Add(c, 1)
	g.Add(c, 2)
	g.Add([]int64{3, 5}, 3)
	got := g.CollectCell(c, nil)
	slices.Sort(got)
	if !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("CollectCell = %v", got)
	}
	g.Remove(c, 1)
	if got := g.CollectCell(c, nil); !slices.Equal(got, []int32{2}) {
		t.Fatalf("after Remove: %v", got)
	}
	g.Remove(c, 2)
	if g.OccupiedCells() != 1 {
		t.Fatalf("empty cell not pruned: %d occupied", g.OccupiedCells())
	}
	g.Remove(c, 99) // absent id: no-op
}

func TestRangeRegistration(t *testing.T) {
	g := New(2, 1)
	// A 2ε-sided rectangle covers up to 3 cells per axis.
	r := geom.NewRect(geom.Point{0.5, 0.5}, geom.Point{2.5, 2.5})
	lo, hi := g.RangeOf(r, nil, nil)
	if !slices.Equal(lo, []int64{0, 0}) || !slices.Equal(hi, []int64{2, 2}) {
		t.Fatalf("RangeOf = %v..%v", lo, hi)
	}
	g.AddRange(lo, hi, 7)
	if g.OccupiedCells() != 9 {
		t.Fatalf("AddRange registered %d cells, want 9", g.OccupiedCells())
	}
	got := g.Collect(lo, hi, nil)
	if len(got) != 9 {
		t.Fatalf("Collect found %d entries, want 9", len(got))
	}
	g.RemoveRange(lo, hi, 7)
	if g.OccupiedCells() != 0 {
		t.Fatalf("RemoveRange left %d cells", g.OccupiedCells())
	}
}

// TestNeighborhoodCoversEps is the correctness property the finders
// rely on: for random points p, q with δ∞(p,q) ≤ ε, q's home cell lies
// inside the cell range of [p-ε, p+ε]. Now exercised well beyond the
// old MaxDims = 4 cap.
func TestNeighborhoodCoversEps(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 8} {
		for trial := 0; trial < 1000; trial++ {
			eps := math.Ldexp(r.Float64()+0.1, r.Intn(8)-4) // spread of scales
			g := New(d, eps)
			p := make([]float64, d)
			q := make([]float64, d)
			for i := 0; i < d; i++ {
				p[i] = r.Float64()*200 - 100
				// q within eps of p on every axis (inclusive boundary
				// sometimes, via exact offsets of ±eps).
				switch r.Intn(4) {
				case 0:
					q[i] = p[i] - eps
				case 1:
					q[i] = p[i] + eps
				default:
					q[i] = p[i] + (r.Float64()*2-1)*eps
				}
			}
			within := true
			for i := 0; i < d; i++ {
				if math.Abs(p[i]-q[i]) > eps {
					within = false
				}
			}
			if !within {
				continue // FP rounding pushed the offset outside ε
			}
			lo, hi := g.RangeOfBox(p, eps, nil, nil)
			c := g.CellOf(q, nil)
			for i := 0; i < d; i++ {
				if c[i] < lo[i] || c[i] > hi[i] {
					t.Fatalf("d=%d eps=%v: cell %v of %v outside range %v..%v of %v",
						d, eps, c, q, lo, hi, p)
				}
			}
		}
	}
}

// TestRangeOfMonotone: any point inside a rectangle maps to a cell
// inside the rectangle's range (the registration invariant).
func TestRangeOfMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var lo, hi, c []int64
	for trial := 0; trial < 2000; trial++ {
		g := New(3, 0.25+r.Float64())
		min := geom.Point{r.Float64()*20 - 10, r.Float64()*20 - 10, r.Float64()*20 - 10}
		max := min.Clone()
		for i := range max {
			max[i] += r.Float64() * 2
		}
		rect := geom.NewRect(min, max)
		lo, hi = g.RangeOf(rect, lo, hi)
		p := make([]float64, 3)
		for i := range p {
			p[i] = min[i] + r.Float64()*(max[i]-min[i])
		}
		c = g.CellOf(p, c)
		for i := 0; i < 3; i++ {
			if c[i] < lo[i] || c[i] > hi[i] {
				t.Fatalf("point %v of %v quantized outside %v..%v", p, rect, lo, hi)
			}
		}
	}
}

func TestReset(t *testing.T) {
	g := New(1, 1)
	g.Add([]int64{1}, 1)
	g.Add([]int64{2}, 2)
	g.Reset()
	if g.OccupiedCells() != 0 {
		t.Fatal("Reset left occupied cells")
	}
	if got := g.CollectCell([]int64{1}, nil); len(got) != 0 {
		t.Fatalf("Reset left ids: %v", got)
	}
	// The table must stay fully usable after Reset.
	g.Add([]int64{1}, 9)
	if got := g.CollectCell([]int64{1}, nil); !slices.Equal(got, []int32{9}) {
		t.Fatalf("post-Reset Add lost: %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1) },
		func() { New(2, 0) },
		func() { New(2, math.Inf(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	// Dimensionalities beyond the old cap are now valid.
	if g := New(12, 1); g.Dims() != 12 {
		t.Fatal("high-dimensional table rejected")
	}
}

// refGrid is the trivially correct reference the open-addressed table
// is cross-checked against: a Go map from stringified coordinates to id
// multisets.
type refGrid map[string][]int32

func refKey(c []int64) string { return fmt.Sprint(c) }

func (r refGrid) add(c []int64, id int32) { r[refKey(c)] = append(r[refKey(c)], id) }

func (r refGrid) remove(c []int64, id int32) {
	k := refKey(c)
	ids := r[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if len(ids) == 0 {
				delete(r, k)
			} else {
				r[k] = ids
			}
			return
		}
	}
}

func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

// TestCrossCheckAgainstMapReference drives randomized Add / Remove /
// AddRange / RemoveRange / Collect / Reset traffic over a tiny
// coordinate universe — forcing hash-slot collisions, dead cells, and
// load-factor rebuilds — and demands multiset-identical Collect results
// and OccupiedCells counts against the map reference at every probe.
func TestCrossCheckAgainstMapReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + d)))
			g := New(d, 1)
			ref := refGrid{}
			randCell := func() []int64 {
				c := make([]int64, d)
				for i := range c {
					c[i] = int64(r.Intn(5) - 2) // 5^d universe: dense collisions at low d
				}
				return c
			}
			randRange := func() (lo, hi []int64) {
				lo, hi = randCell(), make([]int64, d)
				for i := range hi {
					hi[i] = lo[i] + int64(r.Intn(3))
				}
				return lo, hi
			}
			type reg struct {
				lo, hi []int64
				id     int32
			}
			var ranges []reg
			for op := 0; op < 20000; op++ {
				switch r.Intn(10) {
				case 0, 1, 2:
					c, id := randCell(), int32(r.Intn(50))
					g.Add(c, id)
					ref.add(c, id)
				case 3:
					c, id := randCell(), int32(r.Intn(50))
					g.Remove(c, id)
					ref.remove(c, id)
				case 4, 5:
					lo, hi := randRange()
					id := int32(r.Intn(50))
					g.AddRange(lo, hi, id)
					cur := append([]int64(nil), lo...)
					for {
						ref.add(cur, id)
						if !advance(cur, lo, hi) {
							break
						}
					}
					ranges = append(ranges, reg{lo, hi, id})
				case 6:
					if len(ranges) == 0 {
						continue
					}
					k := r.Intn(len(ranges))
					rg := ranges[k]
					ranges[k] = ranges[len(ranges)-1]
					ranges = ranges[:len(ranges)-1]
					g.RemoveRange(rg.lo, rg.hi, rg.id)
					cur := append([]int64(nil), rg.lo...)
					for {
						ref.remove(cur, rg.id)
						if !advance(cur, rg.lo, rg.hi) {
							break
						}
					}
				case 7:
					if r.Intn(200) == 0 {
						g.Reset()
						clear(ref)
						ranges = ranges[:0]
					}
				default:
					// Probe: a random cell and a random range.
					c := randCell()
					if got, want := sortedCopy(g.CollectCell(c, nil)), sortedCopy(ref[refKey(c)]); !slices.Equal(got, want) {
						t.Fatalf("op %d: CollectCell(%v) = %v, want %v", op, c, got, want)
					}
					lo, hi := randRange()
					var want []int32
					cur := append([]int64(nil), lo...)
					for {
						want = append(want, ref[refKey(cur)]...)
						if !advance(cur, lo, hi) {
							break
						}
					}
					if got := sortedCopy(g.Collect(lo, hi, nil)); !slices.Equal(got, sortedCopy(want)) {
						t.Fatalf("op %d: Collect(%v..%v) = %v, want %v", op, lo, hi, got, want)
					}
				}
				if g.OccupiedCells() != len(ref) {
					t.Fatalf("op %d: OccupiedCells = %d, reference has %d", op, g.OccupiedCells(), len(ref))
				}
			}
		})
	}
}

// TestCollectBoxMatchesCollect: the scalar-specialized probe and the
// range walk agree on random point sets at every dimensionality.
func TestCollectBoxMatchesCollect(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, d := range []int{1, 2, 3, 4, 6} {
		g := New(d, 0.5)
		pts := make([][]float64, 400)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = r.Float64()*6 - 3
			}
			pts[i] = p
			g.AddPoint(p, int32(i))
		}
		var cur Cursor
		var lo, hi []int64
		for trial := 0; trial < 200; trial++ {
			center := pts[r.Intn(len(pts))]
			radius := r.Float64()
			got := sortedCopy(g.CollectBox(&cur, center, radius, nil))
			lo, hi = g.RangeOfBox(center, radius, lo, hi)
			want := sortedCopy(g.Collect(lo, hi, nil))
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d: CollectBox %v != Collect %v", d, got, want)
			}
		}
	}
}

// TestRebuildGrowth: a bulk load far past the initial directory
// capacity must keep every registration addressable (the doubling
// rebuild path), and a NewCap-hinted table must agree.
func TestRebuildGrowth(t *testing.T) {
	n := 20000
	g := New(2, 1)
	h := NewCap(2, 1, n)
	for i := 0; i < n; i++ {
		c := []int64{int64(i % 199), int64(i / 199)}
		g.Add(c, int32(i))
		h.Add(c, int32(i))
	}
	if g.OccupiedCells() != h.OccupiedCells() {
		t.Fatalf("occupied mismatch: %d vs %d", g.OccupiedCells(), h.OccupiedCells())
	}
	for i := 0; i < n; i += 37 {
		c := []int64{int64(i % 199), int64(i / 199)}
		got := g.CollectCell(c, nil)
		if !slices.Contains(got, int32(i)) {
			t.Fatalf("id %d lost after growth rebuilds (cell %v has %v)", i, c, got)
		}
	}
}

// TestDeadCellCompaction: heavy add/remove churn over a shifting window
// of cells must not grow the directory without bound — dead cells are
// dropped by the load-factor rebuild, so the slot count stays within a
// small multiple of the live cell count.
func TestDeadCellCompaction(t *testing.T) {
	g := New(1, 1)
	for i := 0; i < 100000; i++ {
		g.Add([]int64{int64(i)}, int32(i))
		if i >= 16 {
			g.Remove([]int64{int64(i - 16)}, int32(i-16))
		}
	}
	if g.OccupiedCells() != 16 {
		t.Fatalf("live cells = %d, want 16", g.OccupiedCells())
	}
	if len(g.slots) > 1024 {
		t.Fatalf("directory grew to %d slots for 16 live cells: dead cells not compacted", len(g.slots))
	}
}

// TestSlabChainLongCell: one cell holding far more ids than a single
// slab, including interleaved removals from chain interiors.
func TestSlabChainLongCell(t *testing.T) {
	g := New(2, 1)
	c := []int64{0, 0}
	const n = 10 * slabIDs
	for i := 0; i < n; i++ {
		g.Add(c, int32(i))
	}
	// Remove every third id (from chain interiors as well as the head).
	want := []int32{}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			g.Remove(c, int32(i))
		} else {
			want = append(want, int32(i))
		}
	}
	got := sortedCopy(g.CollectCell(c, nil))
	if !slices.Equal(got, want) {
		t.Fatalf("after chained removals: got %d ids, want %d (%v)", len(got), len(want), got)
	}
}

// TestBulkLoadMatchesIncremental checks that a bulk-loaded table
// answers probes with exactly the id sets of an AddPoint-built one —
// the Morton-major layout is a performance property, not a semantic
// one — and that it stays mutable afterwards.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 5} {
		n := 400
		ps := geom.NewPointSetCap(d, n)
		for i := 0; i < n; i++ {
			p := ps.Extend()
			for j := range p {
				p[j] = r.Float64()*8 - 4
			}
		}
		bulk := BulkLoad(ps, 0.5)
		inc := New(d, 0.5)
		for i := 0; i < n; i++ {
			inc.AddPoint(ps.At(i), int32(i))
		}
		if bulk.OccupiedCells() != inc.OccupiedCells() {
			t.Fatalf("d=%d: bulk %d cells vs incremental %d", d, bulk.OccupiedCells(), inc.OccupiedCells())
		}
		var cur Cursor
		var b1, b2 []int32
		for i := 0; i < n; i++ {
			b1 = bulk.CollectBox(&cur, ps.At(i), 0.5, b1[:0])
			b2 = inc.CollectBox(&cur, ps.At(i), 0.5, b2[:0])
			slices.Sort(b1)
			slices.Sort(b2)
			if !slices.Equal(b1, b2) {
				t.Fatalf("d=%d probe %d: bulk %v vs incremental %v", d, i, b1, b2)
			}
		}
		// Mutability after bulk load: remove half, re-probe.
		for i := 0; i < n; i += 2 {
			bulk.RemovePoint(ps.At(i), int32(i))
			inc.RemovePoint(ps.At(i), int32(i))
		}
		for i := 1; i < n; i += 7 {
			b1 = bulk.CollectBox(&cur, ps.At(i), 0.5, b1[:0])
			b2 = inc.CollectBox(&cur, ps.At(i), 0.5, b2[:0])
			slices.Sort(b1)
			slices.Sort(b2)
			if !slices.Equal(b1, b2) {
				t.Fatalf("d=%d post-remove probe %d: bulk %v vs incremental %v", d, i, b1, b2)
			}
		}
	}
}

// TestSlabArenaGrowthAllocs registers ids in many distinct cells, one
// slab each, and bounds the bytes allocated meanwhile by a small
// multiple of the final slab arena: the arena must grow geometrically
// by doubling, not by append's ~1.25× large-slice steps, which copy a
// many-cell arena dozens of times. Reset must keep the arena's
// capacity, so a refill allocates no slabs at all.
func TestSlabArenaGrowthAllocs(t *testing.T) {
	const cells = 50000
	g := NewCap(1, 1, cells) // pre-sized directory: only the arenas grow
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cells; i++ {
		g.Add([]int64{int64(i)}, int32(i))
	}
	runtime.ReadMemStats(&after)
	arena := uint64(cap(g.slabs)) * uint64(unsafe.Sizeof(slab{}))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes for a %d-byte slab arena", got, arena)
	if got > 3*arena {
		t.Fatalf("registering %d cells allocated %d bytes, want <= 3× the %d-byte slab arena", cells, got, arena)
	}
	capBefore := cap(g.slabs)
	g.Reset()
	for i := 0; i < cells; i++ {
		g.Add([]int64{int64(i)}, int32(i))
	}
	if cap(g.slabs) != capBefore {
		t.Fatalf("refill after Reset regrew the slab arena: cap %d -> %d", capBefore, cap(g.slabs))
	}
}
