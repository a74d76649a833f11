package hssort

import (
	"fmt"
	"slices"
	"testing"

	"hssort/internal/dist"
)

// TestSmallMessageEquivalence holds the small-message regime — p = 256
// ranks of 500 keys, so every rank histograms ~1300 probes against 500
// local keys, exchanges 255 messages of a couple of keys and merges
// ~256 runs of ~2 — to the comparator oracle. At this shape the code
// plane answers probe lists by forward sweep, places received runs by
// direct indexing and merges them on raw codes; CodePathOff does none of
// that (per-probe comparator searches, the merge kernel under the
// comparator). Output must be rank-identical to
// the oracle on both in-memory transports, and identical again through
// the streaming exchange, with the protocol (rounds, sample size,
// imbalance) untouched. The all-equal input never finalizes its
// splitters and piles every key into equal-code runs.
func TestSmallMessageEquivalence(t *testing.T) {
	const p, perRank = 256, 500
	equal := make([][]int64, p)
	for r := range equal {
		equal[r] = slices.Repeat([]int64{7}, perRank)
	}
	inputs := []struct {
		name   string
		shards [][]int64
	}{
		{"powerskew", dist.Spec{Kind: dist.PowerSkew}.Shards(perRank, p, 71)},
		{"zipfian", dist.Spec{Kind: dist.Zipfian}.Shards(perRank, p, 72)},
		{"all-equal", equal},
	}
	for _, in := range inputs {
		for _, tr := range []Transport{TransportSim, TransportInproc} {
			t.Run(fmt.Sprintf("%s/%s", in.name, tr), func(t *testing.T) {
				oracle := Config{Procs: p, Epsilon: 0.05, Seed: 5, Transport: tr, CodePath: CodePathOff}
				want, wantStats, err := Sort(oracle, cloneShards(in.shards))
				if err != nil {
					t.Fatalf("comparator oracle: %v", err)
				}
				coded := oracle
				coded.CodePath = CodePathOn
				streamed := coded
				streamed.StreamExchange = true
				for _, c := range []struct {
					name string
					cfg  Config
				}{{"materializing", coded}, {"streaming", streamed}} {
					got, stats, err := Sort(c.cfg, cloneShards(in.shards))
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					for r := range want {
						if !slices.Equal(got[r], want[r]) {
							t.Fatalf("%s: rank %d output differs from the comparator oracle (%d vs %d keys)",
								c.name, r, len(got[r]), len(want[r]))
						}
					}
					if stats.Rounds != wantStats.Rounds || stats.TotalSample != wantStats.TotalSample || stats.Imbalance != wantStats.Imbalance {
						t.Errorf("%s: protocol diverged: %d rounds/%d sample/imbalance %v, oracle %d/%d/%v", c.name,
							stats.Rounds, stats.TotalSample, stats.Imbalance, wantStats.Rounds, wantStats.TotalSample, wantStats.Imbalance)
					}
				}
			})
		}
	}
}
