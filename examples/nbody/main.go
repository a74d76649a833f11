// N-body domain decomposition, the paper's motivating application (§6.3):
// every step of an N-body simulation sorts particles by space-filling-
// curve key so each processor owns a compact spatial region. Particle
// positions cluster heavily (galaxies!), so the key distribution is
// heavily skewed. (cmd/experiments -exp fig6.2 compares HSS with classic
// histogram sort on such keys.)
//
// This example builds a Plummer-sphere "galaxy", computes Morton keys
// and simulates the per-timestep loop across 16 simulated processors
// with 64 virtual-processor buckets, the way a production code would run
// it: one long-lived Sorter engine whose every step is seeded with the
// splitters the previous step ended with — particles move only slightly
// between steps, so each step either keeps the decomposition as it is
// (zero histogramming rounds) or nudges the few splitters that fell out
// of balance. It exits 1 if a step misses the balance target or costs
// more rounds than the cold start — CI runs it for that.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"os"

	"hssort"
)

// mortonKey interleaves the top 21 bits of each quantized coordinate.
func mortonKey(x, y, z float64) uint64 {
	return spread(quantize(x)) | spread(quantize(y))<<1 | spread(quantize(z))<<2
}

func quantize(v float64) uint64 {
	if v < 0 {
		v = 0
	}
	if v >= 1 {
		v = math.Nextafter(1, 0)
	}
	return uint64(v * (1 << 21))
}

func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// plummerKeys draws n particles from a Plummer profile centred in the
// unit box and returns their Morton keys.
func plummerKeys(n int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	keys := make([]uint64, n)
	const a = 0.02
	for i := range keys {
		u := rng.Float64()
		for u == 0 || u > 0.999 {
			u = rng.Float64()
		}
		u23 := math.Pow(u, 2.0/3.0)
		r := a * math.Sqrt(u23/(1-u23))
		zc := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		s := math.Sqrt(1 - zc*zc)
		keys[i] = mortonKey(0.5+r*s*math.Cos(phi), 0.5+r*s*math.Sin(phi), 0.5+r*zc)
	}
	return keys
}

func main() {
	const procs = 16
	const particles = 400_000
	const buckets = 4 * procs // virtual processors (TreePieces) per core

	all := plummerKeys(particles, 7)
	// Particles arrive unsorted, dealt round-robin to processors.
	shards := make([][]uint64, procs)
	for i, k := range all {
		shards[i%procs] = append(shards[i%procs], k)
	}

	fmt.Printf("domain decomposition of %d clustered particles, %d processors, %d buckets\n",
		particles, procs, buckets)

	// Timestep loop: between steps the galaxy barely moves, so each
	// step's decomposition starts from the last one's (plan = next).
	const epsilon = 0.05
	ctx := context.Background()
	engine, err := hssort.New[uint64](hssort.Config{
		Procs:   procs,
		Buckets: buckets,
		Epsilon: epsilon,
		Seed:    3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	plan, err := engine.Plan(ctx, shards)
	if err != nil {
		log.Fatal(err)
	}
	coldRounds := plan.Rounds
	fmt.Printf("timestep loop, each step seeded by the one before (cold start: %d rounds, %d probe keys):\n",
		coldRounds, plan.TotalSample)
	ok := true
	for step := 1; step <= 5; step++ {
		in := plummerKeys(particles, 7+uint64(step)) // jittered galaxy
		stepShards := make([][]uint64, procs)
		for i, k := range in {
			stepShards[i%procs] = append(stepShards[i%procs], k)
		}
		_, next, stats, err := engine.SortSeeded(ctx, plan, stepShards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  step %d: %d histogram rounds, %d probe keys, imbalance %.4f\n",
			step, stats.Rounds, stats.TotalSample, stats.Imbalance)
		if stats.Rounds > coldRounds || step > 1 && stats.Imbalance > 1+epsilon {
			ok = false
		}
		plan = next
	}
	if !ok {
		fmt.Println("FAIL: a seeded step missed the balance target or cost more rounds than the cold start")
		os.Exit(1)
	}
}
