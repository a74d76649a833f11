package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestDwarfDeterministicAndInBox(t *testing.T) {
	a := Dwarf(1000, 42)
	b := Dwarf(1000, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Dwarf not deterministic")
		}
		if a[i].X < 0 || a[i].X >= 1 || a[i].Y < 0 || a[i].Y >= 1 || a[i].Z < 0 || a[i].Z >= 1 {
			t.Fatalf("particle %d outside unit box: %+v", i, a[i])
		}
	}
}

func TestDwarfCentrallyConcentrated(t *testing.T) {
	ps := Dwarf(20000, 7)
	within := 0
	for _, p := range ps {
		dx, dy, dz := p.X-0.5, p.Y-0.5, p.Z-0.5
		if math.Sqrt(dx*dx+dy*dy+dz*dz) < 0.1 {
			within++
		}
	}
	// Plummer with a = 0.02: the vast majority of mass within 5a.
	if frac := float64(within) / float64(len(ps)); frac < 0.8 {
		t.Errorf("only %.2f of Dwarf mass within r=0.1 of centre", frac)
	}
}

func TestLambbClusteredButSpread(t *testing.T) {
	ps := Lambb(20000, 9)
	// Clustering diagnostic: count occupied cells of a 16³ grid. A
	// uniform distribution fills nearly all 4096; a clustered one far
	// fewer — but more than the ~1 of a single cluster.
	occupied := map[int]bool{}
	for _, p := range ps {
		cx, cy, cz := int(p.X*16), int(p.Y*16), int(p.Z*16)
		occupied[cx<<8|cy<<4|cz] = true
	}
	if len(occupied) > 3600 {
		t.Errorf("Lambb occupies %d/4096 cells: not clustered", len(occupied))
	}
	if len(occupied) < 64 {
		t.Errorf("Lambb occupies only %d cells: degenerate", len(occupied))
	}
}

func TestMortonKeyLocality(t *testing.T) {
	// Nearby particles share high Morton bits; particles in opposite
	// corners differ in the top bits.
	a := MortonKey(Particle{0.1, 0.1, 0.1}, UnitBox)
	b := MortonKey(Particle{0.1 + 1e-7, 0.1, 0.1}, UnitBox)
	far := MortonKey(Particle{0.9, 0.9, 0.9}, UnitBox)
	if a^b > 1<<12 {
		t.Errorf("nearby keys differ high: %x vs %x", a, b)
	}
	if (a^far)>>60 == 0 {
		t.Errorf("far keys agree high: %x vs %x", a, far)
	}
}

func TestMortonKeyOctantOrder(t *testing.T) {
	// The first Morton split is by the top bit of each dimension: all
	// keys of the low octant sort before all keys of the high octant.
	lo := MortonKey(Particle{0.49, 0.49, 0.49}, UnitBox)
	hi := MortonKey(Particle{0.51, 0.51, 0.51}, UnitBox)
	if lo >= hi {
		t.Errorf("octant order violated: %x >= %x", lo, hi)
	}
}

func TestSpreadProperty(t *testing.T) {
	// spread must be injective on 21-bit inputs and leave two zero bits
	// between input bits.
	f := func(vRaw uint32) bool {
		v := uint64(vRaw) & 0x1fffff
		s := spread(v)
		// Un-spread by collecting every third bit.
		var back uint64
		for i := 0; i < 21; i++ {
			back |= ((s >> (3 * i)) & 1) << i
		}
		return back == v && s&^0x1249249249249249 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeEdges(t *testing.T) {
	if quantize(0, 0, 1) != 0 {
		t.Error("quantize(0) != 0")
	}
	if q := quantize(1, 0, 1); q != 1<<21-1 {
		t.Errorf("quantize(1) = %d, want max 21-bit value", q)
	}
	if quantize(-5, 0, 1) != 0 || quantize(9, 0, 1) != 1<<21-1 {
		t.Error("out-of-range values not clamped")
	}
	if quantize(0.5, 1, 1) != 0 {
		t.Error("degenerate box not handled")
	}
}

func TestBoundsCoverAllParticles(t *testing.T) {
	ps := Lambb(5000, 3)
	box := Bounds(ps)
	for _, p := range ps {
		if p.X < box.Min[0] || p.X >= box.Max[0] ||
			p.Y < box.Min[1] || p.Y >= box.Max[1] ||
			p.Z < box.Min[2] || p.Z >= box.Max[2] {
			t.Fatalf("particle %+v outside bounds %+v", p, box)
		}
	}
}

func TestBoundsEmpty(t *testing.T) {
	if Bounds(nil) != UnitBox {
		t.Error("empty bounds != unit box")
	}
}

func TestShardKeysPartitionTheDataset(t *testing.T) {
	const n, p = 999, 4
	var all []uint64
	for r := 0; r < p; r++ {
		all = append(all, ShardKeys(Datasets[0], n, r, p, 5)...)
	}
	if len(all) != n {
		t.Fatalf("shards cover %d keys, want %d", len(all), n)
	}
	// Must equal the keys of the full dataset (as multisets).
	ps := Dwarf(n, 5)
	want := Keys(ps, Bounds(ps))
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range all {
		if all[i] != want[i] {
			t.Fatal("shard keys are not a partition of the dataset keys")
		}
	}
}

func TestMortonKeysHeavilySkewed(t *testing.T) {
	// The whole point of the workload: Dwarf keys concentrate in a tiny
	// fraction of the key space, the adversarial case for classic
	// histogram sort's key-space bisection. A cluster at the box centre
	// straddles all eight octants, so key *span* is wide — the right
	// diagnostic is occupancy: how many of the 4096 top-12-bit key
	// cells hold any key. Uniform particles fill nearly all of them.
	ps := Dwarf(20000, 11)
	skewed := topCellOccupancy(Keys(ps, UnitBox))
	rng := rand.New(rand.NewPCG(1, 2))
	uniform := make([]Particle, 20000)
	for i := range uniform {
		uniform[i] = Particle{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	base := topCellOccupancy(Keys(uniform, UnitBox))
	if skewed*4 > base {
		t.Errorf("Dwarf occupies %d top cells vs %d uniform: not skewed", skewed, base)
	}
}

// topCellOccupancy counts distinct top-12-bit key cells.
func topCellOccupancy(keys []uint64) int {
	cells := map[uint64]bool{}
	for _, k := range keys {
		cells[k>>51] = true
	}
	return len(cells)
}
