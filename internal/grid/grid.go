package grid

import (
	"fmt"
	"math"

	"github.com/sgb-db/sgb/internal/geom"
)

// slabIDs is the id capacity of one slab. With the two header fields a
// slab is exactly 64 bytes — one cache line — so walking a cell's chain
// touches one line per slab.
const slabIDs = 14

// slab is one pooled chunk of a cell's id list. Cells chain slabs
// head-first: the head slab is partially filled (n in [1, slabIDs]),
// every later slab in the chain is full. Freed slabs are threaded onto
// the table's freelist through next, so steady-state Add/Remove churn
// recycles chunks instead of allocating.
type slab struct {
	next int32 // next slab in the chain (or freelist), -1 = none
	n    int32 // ids used in this slab
	ids  [slabIDs]int32
}

// slot is one entry of the open-addressed cell directory. A slot with
// off < 0 has never held a cell; a slot with off >= 0 and head < 0 is a
// dead cell (its id list emptied) that stays addressable until the next
// rebuild compacts it away — the tombstone-free deletion scheme.
type slot struct {
	hash uint64 // cached cell hash: skips coordinate compares on probe
	off  int32  // cell index into the coords arena, -1 = free slot
	head int32  // head slab of the id list, -1 = empty
}

// Cursor is per-caller scratch for the read-only probe entry points
// (CollectBox). The table itself holds no probe state, so any number of
// goroutines may probe one table concurrently as long as each brings
// its own Cursor — the parallel adjacency build does exactly that.
// The zero value is ready to use.
type Cursor struct {
	lo, hi, cur []int64
}

// Table is a uniform ε-cell hash grid over points of any
// dimensionality: a flat, open-addressed directory maps occupied cells
// (keyed by a 64-bit hash of their integer coordinates, verified
// against the coordinate arena on probe) to id lists stored in pooled
// slabs. Linear probing over a power-of-two capacity keeps lookups to
// one or two cache lines; the directory rebuilds — dropping cells whose
// lists emptied — when the load factor passes 3/4, so no tombstones are
// ever chased. Add, Remove, and Collect are allocation-free in steady
// state.
type Table struct {
	dims int
	inv  float64 // 1 / cellSize

	slots []slot
	mask  uint64
	used  int // slots holding a cell, live or dead
	live  int // cells with a non-empty id list

	coords []int64 // cell coordinates, dims per cell, indexed by slot.off
	slabs  []slab
	free   int32 // slab freelist head, -1 = empty

	cur []int64 // odometer scratch for the mutating range walks (d >= 4)
}

// minSlots is the initial directory capacity (power of two).
const minSlots = 64

// New returns an empty grid over dims-dimensional space with the given
// cell side length. Any dims >= 1 is supported.
func New(dims int, cellSize float64) *Table {
	return NewCap(dims, cellSize, 0)
}

// NewCap is New with a capacity hint: the directory is pre-sized for
// about cells occupied cells, so bulk loads skip the doubling rebuilds.
func NewCap(dims int, cellSize float64, cells int) *Table {
	if dims < 1 {
		panic(fmt.Sprintf("grid: dims %d must be >= 1", dims))
	}
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic("grid: cell size must be positive and finite")
	}
	slots := minSlots
	for slots*3 < cells*4 { // size for load factor <= 3/4 at the hint
		slots *= 2
	}
	t := &Table{
		dims:  dims,
		inv:   1 / cellSize,
		slots: make([]slot, slots),
		mask:  uint64(slots - 1),
		free:  -1,
		cur:   make([]int64, dims),
	}
	for i := range t.slots {
		t.slots[i].off = -1
	}
	return t
}

// Dims returns the grid's dimensionality.
func (t *Table) Dims() int { return t.dims }

// cellIdx quantizes one coordinate to its cell index. Quantization is
// monotone, so the cell range of a rectangle covers the home cell of
// every point inside it.
//
//sgb:allocfree
func (t *Table) cellIdx(x float64) int64 {
	return int64(math.Floor(x * t.inv))
}

// CellOf fills dst with the home cell of p and returns it (dst is
// reused when its capacity suffices).
func (t *Table) CellOf(p []float64, dst []int64) []int64 {
	dst = resizeCells(dst, t.dims)
	for i := 0; i < t.dims; i++ {
		dst[i] = t.cellIdx(p[i])
	}
	return dst
}

// RangeOf fills lo, hi with the inclusive cell range covered by
// rectangle r and returns them (reused when capacity suffices).
func (t *Table) RangeOf(r geom.Rect, lo, hi []int64) ([]int64, []int64) {
	lo, hi = resizeCells(lo, t.dims), resizeCells(hi, t.dims)
	for i := 0; i < t.dims; i++ {
		lo[i] = t.cellIdx(r.Min[i])
		hi[i] = t.cellIdx(r.Max[i])
	}
	return lo, hi
}

// RangeOfBox fills lo, hi with the inclusive cell range covered by the
// box [center-radius, center+radius] — the per-probe neighborhood of
// the finders — and returns them.
func (t *Table) RangeOfBox(center []float64, radius float64, lo, hi []int64) ([]int64, []int64) {
	lo, hi = resizeCells(lo, t.dims), resizeCells(hi, t.dims)
	for i := 0; i < t.dims; i++ {
		lo[i] = t.cellIdx(center[i] - radius)
		hi[i] = t.cellIdx(center[i] + radius)
	}
	return lo, hi
}

func resizeCells(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// Hashing: each coordinate is folded into a running 64-bit state with a
// multiply + splitmix64 finalizer. The per-axis chaining is what lets
// the specialized d = 2/3 range loops hoist the partial hash of the
// outer coordinates out of the inner loop.

const hashSeed = 0x9AE16A3B2F90404F
const hashMul = 0x9E3779B97F4A7C15

//sgb:allocfree
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

//sgb:allocfree
func hashNext(h uint64, c int64) uint64 {
	return mix64(h + uint64(c)*hashMul)
}

//sgb:allocfree
func (t *Table) hashCoords(c []int64) uint64 {
	h := uint64(hashSeed)
	for _, v := range c {
		h = hashNext(h, v)
	}
	return h
}

// findSlot locates the slot of cell c (pre-hashed as h), or -1. The
// directory always keeps free slots (load factor <= 3/4), so the linear
// probe terminates.
//
//sgb:allocfree
func (t *Table) findSlot(h uint64, c []int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h && t.coordsEqual(s.off, c) {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// findSlot2 / findSlot3 are findSlot with the coordinate compare
// unrolled, so the d = 2/3 probe loops never materialize a coordinate
// slice.
//
//sgb:allocfree
func (t *Table) findSlot2(h uint64, x, y int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h {
			b := int(s.off) * 2
			if t.coords[b] == x && t.coords[b+1] == y {
				return int32(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

//sgb:allocfree
func (t *Table) findSlot3(h uint64, x, y, z int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h {
			b := int(s.off) * 3
			if t.coords[b] == x && t.coords[b+1] == y && t.coords[b+2] == z {
				return int32(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

//sgb:allocfree
func (t *Table) coordsEqual(off int32, c []int64) bool {
	b := int(off) * t.dims
	for k, v := range c {
		if t.coords[b+k] != v {
			return false
		}
	}
	return true
}

// ensureSlot returns the slot of cell c, creating it if absent. A
// rebuild may run first to keep the load factor below 3/4.
func (t *Table) ensureSlot(h uint64, c []int64) int32 {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.rebuild()
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			off := int32(len(t.coords) / t.dims)
			t.coords = append(t.coords, c...)
			*s = slot{hash: h, off: off, head: -1}
			t.used++
			return int32(i)
		}
		if s.hash == h && t.coordsEqual(s.off, c) {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// rebuild re-inserts every live cell into a fresh directory, compacting
// the coordinate arena and dropping dead cells — deletion happens here,
// in bulk, instead of through per-slot tombstones. Capacity doubles
// only when the live cells alone would keep the new directory more than
// half full.
func (t *Table) rebuild() {
	newCap := len(t.slots)
	for (t.live+1)*2 > newCap {
		newCap *= 2
	}
	slots := make([]slot, newCap)
	for i := range slots {
		slots[i].off = -1
	}
	coords := make([]int64, 0, t.live*t.dims)
	mask := uint64(newCap - 1)
	for _, s := range t.slots {
		if s.off < 0 || s.head < 0 {
			continue
		}
		off := int32(len(coords) / t.dims)
		b := int(s.off) * t.dims
		coords = append(coords, t.coords[b:b+t.dims]...)
		i := s.hash & mask
		for slots[i].off >= 0 {
			i = (i + 1) & mask
		}
		slots[i] = slot{hash: s.hash, off: off, head: s.head}
	}
	t.slots, t.coords, t.mask = slots, coords, mask
	t.used = t.live
}

// allocSlab pops the freelist or grows the slab arena. A full arena
// doubles explicitly: append (and slices.Grow) grow large slices only
// about 1.25× per step, which copies a many-cell arena dozens of times.
func (t *Table) allocSlab() int32 {
	if t.free >= 0 {
		i := t.free
		t.free = t.slabs[i].next
		return i
	}
	if len(t.slabs) == cap(t.slabs) {
		grown := make([]slab, len(t.slabs), max(2*cap(t.slabs), 8))
		copy(grown, t.slabs)
		t.slabs = grown
	}
	t.slabs = append(t.slabs, slab{})
	return int32(len(t.slabs) - 1)
}

// addToCell appends id to the slot's id list.
func (t *Table) addToCell(si int32, id int32) {
	s := &t.slots[si]
	if s.head >= 0 {
		if sl := &t.slabs[s.head]; sl.n < slabIDs {
			sl.ids[sl.n] = id
			sl.n++
			return
		}
	} else {
		t.live++
	}
	ns := t.allocSlab()
	t.slabs[ns] = slab{next: s.head, n: 1}
	t.slabs[ns].ids[0] = id
	s.head = ns
}

// removeFromCell deletes one occurrence of id from the slot's id list
// (order within a cell is not meaningful, so the hole is filled with
// the most recently added id). No-op when id is absent.
func (t *Table) removeFromCell(si int32, id int32) {
	s := &t.slots[si]
	h := s.head
	if h < 0 {
		return
	}
	for cur := h; cur >= 0; cur = t.slabs[cur].next {
		sl := &t.slabs[cur]
		for k := sl.n - 1; k >= 0; k-- {
			if sl.ids[k] != id {
				continue
			}
			head := &t.slabs[h]
			sl.ids[k] = head.ids[head.n-1]
			head.n--
			if head.n == 0 {
				s.head = head.next
				head.next = t.free
				t.free = h
				if s.head < 0 {
					t.live--
				}
			}
			return
		}
	}
}

// appendCell appends the slot's ids to buf.
//
//sgb:allocfree
func (t *Table) appendCell(si int32, buf []int32) []int32 {
	for cur := t.slots[si].head; cur >= 0; {
		sl := &t.slabs[cur]
		buf = append(buf, sl.ids[:sl.n]...)
		cur = sl.next
	}
	return buf
}

// Add registers id in cell c.
func (t *Table) Add(c []int64, id int32) {
	t.addToCell(t.ensureSlot(t.hashCoords(c), c), id)
}

// AddPoint registers id in the home cell of p without the caller
// materializing the cell coordinates — the SGB-Any / adjacency-build
// registration path.
func (t *Table) AddPoint(p []float64, id int32) {
	switch t.dims {
	case 2:
		x, y := t.cellIdx(p[0]), t.cellIdx(p[1])
		t.cur[0], t.cur[1] = x, y
		t.addToCell(t.ensureSlot(hashNext(hashNext(hashSeed, x), y), t.cur), id)
	case 3:
		x, y, z := t.cellIdx(p[0]), t.cellIdx(p[1]), t.cellIdx(p[2])
		t.cur[0], t.cur[1], t.cur[2] = x, y, z
		t.addToCell(t.ensureSlot(hashNext(hashNext(hashNext(hashSeed, x), y), z), t.cur), id)
	default:
		t.addToCell(t.ensureSlot(t.hashCoords(t.CellOf(p, t.cur)), t.cur), id)
	}
}

// Remove unregisters id from cell c. It is a no-op if id is not
// present. A cell whose list empties turns dead and is dropped by the
// next rebuild or Reset; until then it answers probes with an empty
// list.
func (t *Table) Remove(c []int64, id int32) {
	if si := t.findSlot(t.hashCoords(c), c); si >= 0 {
		t.removeFromCell(si, id)
	}
}

// RemovePoint unregisters id from the home cell of p — the inverse of
// AddPoint, used by decremental SGB-Any maintenance when a point is
// deleted from the live set.
func (t *Table) RemovePoint(p []float64, id int32) {
	switch t.dims {
	case 1:
		x := t.cellIdx(p[0])
		if si := t.findSlot1(hashNext(hashSeed, x), x); si >= 0 {
			t.removeFromCell(si, id)
		}
	case 2:
		x, y := t.cellIdx(p[0]), t.cellIdx(p[1])
		if si := t.findSlot2(hashNext(hashNext(hashSeed, x), y), x, y); si >= 0 {
			t.removeFromCell(si, id)
		}
	case 3:
		x, y, z := t.cellIdx(p[0]), t.cellIdx(p[1]), t.cellIdx(p[2])
		if si := t.findSlot3(hashNext(hashNext(hashNext(hashSeed, x), y), z), x, y, z); si >= 0 {
			t.removeFromCell(si, id)
		}
	default:
		t.Remove(t.CellOf(p, t.cur), id)
	}
}

// AddRange registers id in every cell of the inclusive range [lo, hi].
// The range walk is inlined per dimensionality — single loop nest for
// d <= 3, an odometer for higher d — so registration makes no indirect
// calls.
func (t *Table) AddRange(lo, hi []int64, id int32) {
	switch t.dims {
	case 1:
		c := t.cur
		for x := lo[0]; x <= hi[0]; x++ {
			c[0] = x
			t.addToCell(t.ensureSlot(hashNext(hashSeed, x), c), id)
		}
	case 2:
		c := t.cur
		for x := lo[0]; x <= hi[0]; x++ {
			hx := hashNext(hashSeed, x)
			c[0] = x
			for y := lo[1]; y <= hi[1]; y++ {
				c[1] = y
				t.addToCell(t.ensureSlot(hashNext(hx, y), c), id)
			}
		}
	case 3:
		c := t.cur
		for x := lo[0]; x <= hi[0]; x++ {
			hx := hashNext(hashSeed, x)
			c[0] = x
			for y := lo[1]; y <= hi[1]; y++ {
				hy := hashNext(hx, y)
				c[1] = y
				for z := lo[2]; z <= hi[2]; z++ {
					c[2] = z
					t.addToCell(t.ensureSlot(hashNext(hy, z), c), id)
				}
			}
		}
	default:
		cur := t.cur
		copy(cur, lo)
		for {
			t.addToCell(t.ensureSlot(t.hashCoords(cur), cur), id)
			if !advance(cur, lo, hi) {
				return
			}
		}
	}
}

// RemoveRange unregisters id from every cell of [lo, hi].
func (t *Table) RemoveRange(lo, hi []int64, id int32) {
	switch t.dims {
	case 1:
		for x := lo[0]; x <= hi[0]; x++ {
			if si := t.findSlot1(hashNext(hashSeed, x), x); si >= 0 {
				t.removeFromCell(si, id)
			}
		}
	case 2:
		for x := lo[0]; x <= hi[0]; x++ {
			hx := hashNext(hashSeed, x)
			for y := lo[1]; y <= hi[1]; y++ {
				if si := t.findSlot2(hashNext(hx, y), x, y); si >= 0 {
					t.removeFromCell(si, id)
				}
			}
		}
	case 3:
		for x := lo[0]; x <= hi[0]; x++ {
			hx := hashNext(hashSeed, x)
			for y := lo[1]; y <= hi[1]; y++ {
				hy := hashNext(hx, y)
				for z := lo[2]; z <= hi[2]; z++ {
					if si := t.findSlot3(hashNext(hy, z), x, y, z); si >= 0 {
						t.removeFromCell(si, id)
					}
				}
			}
		}
	default:
		cur := t.cur
		copy(cur, lo)
		for {
			if si := t.findSlot(t.hashCoords(cur), cur); si >= 0 {
				t.removeFromCell(si, id)
			}
			if !advance(cur, lo, hi) {
				return
			}
		}
	}
}

// advance steps an odometer cursor through the inclusive range [lo, hi],
// returning false after the last cell.
func advance(cur, lo, hi []int64) bool {
	for i := range cur {
		if cur[i] < hi[i] {
			cur[i]++
			return true
		}
		cur[i] = lo[i]
	}
	return false
}

// Collect appends the ids registered in every cell of [lo, hi] to buf
// and returns it. Ids registered in several cells of the range appear
// once per cell; callers needing uniqueness dedup. Collect uses the
// table's own odometer scratch for d >= 4 — concurrent probers use
// CollectBox with private Cursors instead.
func (t *Table) Collect(lo, hi []int64, buf []int32) []int32 {
	return t.collectRange(lo, hi, t.cur, buf)
}

// CollectBox appends the ids registered in the cells covered by the box
// [center-radius, center+radius] — the probe neighborhood — to buf.
// The d = 1/2/3 cases run as plain loop nests over scalar coordinates;
// higher dimensionalities walk an odometer over cur's scratch, so
// concurrent probes of a read-only table stay race-free as long as each
// goroutine brings its own Cursor.
func (t *Table) CollectBox(cur *Cursor, center []float64, radius float64, buf []int32) []int32 {
	switch t.dims {
	case 1:
		x0, x1 := t.cellIdx(center[0]-radius), t.cellIdx(center[0]+radius)
		for x := x0; x <= x1; x++ {
			if si := t.findSlot1(hashNext(hashSeed, x), x); si >= 0 {
				buf = t.appendCell(si, buf)
			}
		}
		return buf
	case 2:
		x0, x1 := t.cellIdx(center[0]-radius), t.cellIdx(center[0]+radius)
		y0, y1 := t.cellIdx(center[1]-radius), t.cellIdx(center[1]+radius)
		for x := x0; x <= x1; x++ {
			hx := hashNext(hashSeed, x)
			for y := y0; y <= y1; y++ {
				if si := t.findSlot2(hashNext(hx, y), x, y); si >= 0 {
					buf = t.appendCell(si, buf)
				}
			}
		}
		return buf
	case 3:
		x0, x1 := t.cellIdx(center[0]-radius), t.cellIdx(center[0]+radius)
		y0, y1 := t.cellIdx(center[1]-radius), t.cellIdx(center[1]+radius)
		z0, z1 := t.cellIdx(center[2]-radius), t.cellIdx(center[2]+radius)
		for x := x0; x <= x1; x++ {
			hx := hashNext(hashSeed, x)
			for y := y0; y <= y1; y++ {
				hy := hashNext(hx, y)
				for z := z0; z <= z1; z++ {
					if si := t.findSlot3(hashNext(hy, z), x, y, z); si >= 0 {
						buf = t.appendCell(si, buf)
					}
				}
			}
		}
		return buf
	default:
		cur.lo, cur.hi = t.RangeOfBox(center, radius, cur.lo, cur.hi)
		cur.cur = resizeCells(cur.cur, t.dims)
		return t.collectRange(cur.lo, cur.hi, cur.cur, buf)
	}
}

// findSlot1 is the one-dimensional findSlot.
//
//sgb:allocfree
func (t *Table) findSlot1(h uint64, x int64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.off < 0 {
			return -1
		}
		if s.hash == h && t.coords[s.off] == x {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// collectRange is the range walk behind Collect and the generic-d arm
// of CollectBox, with the odometer cursor supplied by the caller.
func (t *Table) collectRange(lo, hi, cur []int64, buf []int32) []int32 {
	switch t.dims {
	case 1:
		for x := lo[0]; x <= hi[0]; x++ {
			if si := t.findSlot1(hashNext(hashSeed, x), x); si >= 0 {
				buf = t.appendCell(si, buf)
			}
		}
	case 2:
		for x := lo[0]; x <= hi[0]; x++ {
			hx := hashNext(hashSeed, x)
			for y := lo[1]; y <= hi[1]; y++ {
				if si := t.findSlot2(hashNext(hx, y), x, y); si >= 0 {
					buf = t.appendCell(si, buf)
				}
			}
		}
	case 3:
		for x := lo[0]; x <= hi[0]; x++ {
			hx := hashNext(hashSeed, x)
			for y := lo[1]; y <= hi[1]; y++ {
				hy := hashNext(hx, y)
				for z := lo[2]; z <= hi[2]; z++ {
					if si := t.findSlot3(hashNext(hy, z), x, y, z); si >= 0 {
						buf = t.appendCell(si, buf)
					}
				}
			}
		}
	default:
		copy(cur, lo)
		for {
			if si := t.findSlot(t.hashCoords(cur), cur); si >= 0 {
				buf = t.appendCell(si, buf)
			}
			if !advance(cur, lo, hi) {
				break
			}
		}
	}
	return buf
}

// CollectCell appends the ids registered in cell c to buf.
func (t *Table) CollectCell(c []int64, buf []int32) []int32 {
	if si := t.findSlot(t.hashCoords(c), c); si >= 0 {
		buf = t.appendCell(si, buf)
	}
	return buf
}

// CollectPointCell appends the ids registered in the home cell of p to
// buf — the single-cell probe of the SGB-All JOIN-ANY path.
func (t *Table) CollectPointCell(p []float64, buf []int32) []int32 {
	switch t.dims {
	case 1:
		x := t.cellIdx(p[0])
		if si := t.findSlot1(hashNext(hashSeed, x), x); si >= 0 {
			buf = t.appendCell(si, buf)
		}
	case 2:
		x, y := t.cellIdx(p[0]), t.cellIdx(p[1])
		if si := t.findSlot2(hashNext(hashNext(hashSeed, x), y), x, y); si >= 0 {
			buf = t.appendCell(si, buf)
		}
	case 3:
		x, y, z := t.cellIdx(p[0]), t.cellIdx(p[1]), t.cellIdx(p[2])
		if si := t.findSlot3(hashNext(hashNext(hashNext(hashSeed, x), y), z), x, y, z); si >= 0 {
			buf = t.appendCell(si, buf)
		}
	default:
		c := t.CellOf(p, t.cur)
		if si := t.findSlot(t.hashCoords(c), c); si >= 0 {
			buf = t.appendCell(si, buf)
		}
	}
	return buf
}

// OccupiedCells returns the number of cells with a non-empty id list.
func (t *Table) OccupiedCells() int { return t.live }

// Reset empties the grid, dropping all registrations but keeping the
// directory, arena, and slab capacity for reuse.
func (t *Table) Reset() {
	for i := range t.slots {
		t.slots[i].off = -1
	}
	t.used, t.live = 0, 0
	t.coords = t.coords[:0]
	t.slabs = t.slabs[:0]
	t.free = -1
}
