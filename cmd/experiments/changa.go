package main

// The ChaNGa sorting workload of §6.3 (Fig 6.2).
//
// ChaNGa (an N-body cosmology code) sorts particle keys — positions
// mapped onto a space-filling curve — at the start of every simulation
// step, with the output buckets being *virtual processors* (TreePieces)
// that outnumber physical cores and may be placed non-contiguously. The
// paper evaluates on two proprietary datasets:
//
//   - Dwarf: a dwarf-galaxy zoom-in — one dense Plummer-profile cluster,
//     extreme central concentration.
//   - Lambb: a cosmological volume — many halos of varying mass over a
//     near-uniform background.
//
// Those datasets cannot be redistributed, so this file generates
// synthetic analogues with the same key-distribution shape (heavily
// clustered space-filling-curve keys): Dwarf as a single Plummer sphere,
// Lambb as a halo mass-function-ish Gaussian-mixture plus background.
// The sorter sees only the key distribution, so the substitution
// preserves the behaviour Fig 6.2 measures.

import (
	"math"
	"math/rand/v2"
)

// Particle is a 3-D position (mass is irrelevant to sorting).
type Particle struct {
	X, Y, Z float64
}

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max [3]float64
}

// UnitBox is the canonical simulation volume [0,1)³.
var UnitBox = Box{Min: [3]float64{0, 0, 0}, Max: [3]float64{1, 1, 1}}

// Dwarf generates n particles of the Dwarf analogue: a single Plummer
// sphere centred in the unit box. The Plummer scale radius a controls
// concentration; r is clipped to the box.
func Dwarf(n int, seed uint64) []Particle {
	rng := rand.New(rand.NewPCG(seed, 0xdeadbeefcafe))
	out := make([]Particle, n)
	const a = 0.02 // scale radius: deep central concentration
	centre := [3]float64{0.5, 0.5, 0.5}
	for i := range out {
		out[i] = plummer(rng, centre, a)
	}
	return out
}

// Lambb generates n particles of the Lambb analogue: 85% of mass in ~64
// halos with power-law distributed sizes, 15% uniform background — the
// shape of a cosmological volume after structure formation.
func Lambb(n int, seed uint64) []Particle {
	rng := rand.New(rand.NewPCG(seed, 0xfeedface1234))
	const halos = 64
	centres := make([][3]float64, halos)
	scales := make([]float64, halos)
	weights := make([]float64, halos)
	total := 0.0
	for h := range centres {
		centres[h] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Halo masses follow a steep power law (few big, many small).
		w := math.Pow(rng.Float64(), 3)
		weights[h] = w
		total += w
		scales[h] = 0.002 + 0.03*w
	}
	cum := make([]float64, halos)
	acc := 0.0
	for h, w := range weights {
		acc += w / total
		cum[h] = acc
	}
	out := make([]Particle, n)
	for i := range out {
		if rng.Float64() < 0.15 {
			out[i] = Particle{rng.Float64(), rng.Float64(), rng.Float64()}
			continue
		}
		u := rng.Float64()
		h := 0
		for h < halos-1 && cum[h] < u {
			h++
		}
		out[i] = plummer(rng, centres[h], scales[h])
	}
	return out
}

// plummer draws one particle from a Plummer profile of scale radius a
// around centre, clipped to the unit box.
func plummer(rng *rand.Rand, centre [3]float64, a float64) Particle {
	// Inverse CDF of the Plummer cumulative mass profile
	// M(r)/M = r³/(r²+a²)^(3/2):  r = a · (u^(2/3) / (1 - u^(2/3)))^(1/2).
	u := rng.Float64()
	for u == 0 || u > 0.999 { // clip the unbounded outer tail
		u = rng.Float64()
	}
	u23 := math.Pow(u, 2.0/3.0)
	r := a * math.Sqrt(u23/(1-u23))
	// Uniform direction on the sphere.
	z := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	s := math.Sqrt(1 - z*z)
	p := Particle{
		X: centre[0] + r*s*math.Cos(phi),
		Y: centre[1] + r*s*math.Sin(phi),
		Z: centre[2] + r*z,
	}
	p.X = clamp01(p.X)
	p.Y = clamp01(p.Y)
	p.Z = clamp01(p.Z)
	return p
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// MortonKey maps a particle to its 63-bit Morton (Z-order) key within
// box: 21 bits per dimension, bit-interleaved — ChaNGa's space-filling
// curve key for domain decomposition.
func MortonKey(p Particle, box Box) uint64 {
	qx := quantize(p.X, box.Min[0], box.Max[0])
	qy := quantize(p.Y, box.Min[1], box.Max[1])
	qz := quantize(p.Z, box.Min[2], box.Max[2])
	return spread(qx) | spread(qy)<<1 | spread(qz)<<2
}

// quantize maps v in [min, max) to a 21-bit integer.
func quantize(v, min, max float64) uint64 {
	if max <= min {
		return 0
	}
	f := (v - min) / (max - min)
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		f = math.Nextafter(1, 0)
	}
	return uint64(f * (1 << 21))
}

// spread inserts two zero bits between each of the low 21 bits of v
// (the standard Morton magic-number dilation).
func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// Keys maps particles to Morton keys in one pass.
func Keys(ps []Particle, box Box) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = MortonKey(p, box)
	}
	return out
}

// Bounds returns the bounding box of the particles (half-open upper
// bounds nudged so every particle quantizes in range).
func Bounds(ps []Particle) Box {
	if len(ps) == 0 {
		return UnitBox
	}
	b := Box{
		Min: [3]float64{ps[0].X, ps[0].Y, ps[0].Z},
		Max: [3]float64{ps[0].X, ps[0].Y, ps[0].Z},
	}
	for _, p := range ps {
		b.Min[0] = math.Min(b.Min[0], p.X)
		b.Min[1] = math.Min(b.Min[1], p.Y)
		b.Min[2] = math.Min(b.Min[2], p.Z)
		b.Max[0] = math.Max(b.Max[0], p.X)
		b.Max[1] = math.Max(b.Max[1], p.Y)
		b.Max[2] = math.Max(b.Max[2], p.Z)
	}
	for d := 0; d < 3; d++ {
		span := b.Max[d] - b.Min[d]
		if span <= 0 {
			span = 1
		}
		b.Max[d] += span * 1e-9
	}
	return b
}

// Dataset names a particle generator, mirroring the paper's dataset pair.
type Dataset struct {
	// Name is the display name ("Dwarf", "Lambb").
	Name string
	// Gen generates n particles.
	Gen func(n int, seed uint64) []Particle
}

// Datasets lists the Fig 6.2 workloads.
var Datasets = []Dataset{
	{Name: "Dwarf", Gen: Dwarf},
	{Name: "Lambb", Gen: Lambb},
}

// ShardKeys generates shard r of p of a dataset's Morton keys: particles
// are dealt round-robin to ranks (ChaNGa's initial decomposition is
// unsorted), then keyed within the dataset-wide bounding box. The keys of
// shard r are deterministic given (dataset, n, p, seed) but require
// generating the full dataset, matching how a simulation snapshot would
// be loaded.
func ShardKeys(ds Dataset, totalParticles, r, p int, seed uint64) []uint64 {
	ps := ds.Gen(totalParticles, seed)
	box := Bounds(ps)
	var mine []Particle
	for i := r; i < len(ps); i += p {
		mine = append(mine, ps[i])
	}
	return Keys(mine, box)
}
