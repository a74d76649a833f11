package hssort

import (
	"slices"
	"testing"

	"hssort/internal/comm"
	"hssort/internal/dist"
	"hssort/internal/exchange"
	"hssort/internal/tagging"
)

// TestStreamExchangeEquivalence is the streaming pipeline's acceptance
// gate: for every supported algorithm, on both transports, a sort run
// with Config.StreamExchange must produce rank-identical output to the
// materializing path — and its peak in-flight volume must stay within
// the flow-control budget (p-1)·window·ChunkKeys·keysize.
func TestStreamExchangeEquivalence(t *testing.T) {
	const p, perRank = 8, 4000
	const chunkKeys = 512 // well below perRank so every rank really streams
	cases := []struct {
		name string
		cfg  Config
		kind dist.Kind
	}{
		{"hss", Config{Procs: p, Algorithm: HSS, Epsilon: 0.05, Seed: 3}, dist.PowerSkew},
		{"hss-overpartition", Config{Procs: p, Algorithm: HSS, Buckets: 4 * p, Epsilon: 0.1, Seed: 5}, dist.Uniform},
		{"hss-roundrobin", Config{Procs: p, Algorithm: HSS, Buckets: 2 * p, RoundRobinBuckets: true, Epsilon: 0.1, Seed: 5}, dist.Gaussian},
		{"samplesort-regular", Config{Procs: p, Algorithm: SampleSortRegular, Epsilon: 0.1, Seed: 7}, dist.Uniform},
		{"samplesort-random", Config{Procs: p, Algorithm: SampleSortRandom, Epsilon: 0.1, Seed: 7}, dist.Exponential},
		{"histogramsort", Config{Procs: p, Algorithm: HistogramSort, Epsilon: 0.1, Seed: 9}, dist.Uniform},
		{"node-hss", Config{Procs: p, Algorithm: NodeHSS, CoresPerNode: 2, Epsilon: 0.1, Seed: 11}, dist.Uniform},
		{"hss-duplicates", Config{Procs: p, Algorithm: HSS, Epsilon: 0.1, TagDuplicates: true, Seed: 13}, dist.DuplicateHeavy},
	}
	for _, tc := range cases {
		for _, tr := range []Transport{TransportSim, TransportInproc} {
			t.Run(tc.name+"/"+tr.String(), func(t *testing.T) {
				shards := dist.Spec{Kind: tc.kind, Min: 0, Max: 1 << 40, Distinct: 64}.Shards(perRank, p, 33)

				matCfg := tc.cfg
				matCfg.Transport = tr
				matOuts, _, err := Sort(matCfg, cloneShards(shards))
				if err != nil {
					t.Fatalf("materializing: %v", err)
				}

				strCfg := tc.cfg
				strCfg.Transport = tr
				strCfg.StreamExchange = true
				strCfg.ChunkKeys = chunkKeys
				strOuts, strStats, err := Sort(strCfg, cloneShards(shards))
				if err != nil {
					t.Fatalf("streaming: %v", err)
				}

				for r := range matOuts {
					if !slices.Equal(matOuts[r], strOuts[r]) {
						t.Fatalf("rank %d: streaming output differs from materializing path (%d vs %d keys)",
							r, len(strOuts[r]), len(matOuts[r]))
					}
				}
				keySize := comm.SizeOf[int64]()
				if tc.cfg.TagDuplicates {
					keySize = comm.SizeOf[tagging.Tagged[int64]]()
				}
				budget := int64(p-1) * exchange.DefaultStreamWindow * chunkKeys * keySize
				if strStats.PeakInFlightBytes > budget {
					t.Errorf("peak in-flight %d bytes exceeds budget %d", strStats.PeakInFlightBytes, budget)
				}
				if strStats.PeakInFlightBytes == 0 {
					t.Error("streaming run reported zero peak in-flight bytes")
				}
			})
		}
	}
}

// TestStreamExchangeStats: the streaming path populates the overlap and
// in-flight fields and the materializing path leaves them zero.
func TestStreamExchangeStats(t *testing.T) {
	const p, perRank = 4, 20000
	shards := dist.Spec{Kind: dist.Uniform}.Shards(perRank, p, 9)
	_, matStats, err := Sort(Config{Procs: p, Epsilon: 0.1, Seed: 3}, cloneShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if matStats.ExchangeOverlap != 0 || matStats.PeakInFlightBytes != 0 {
		t.Errorf("materializing path reported streaming stats: overlap %v, in-flight %d",
			matStats.ExchangeOverlap, matStats.PeakInFlightBytes)
	}
	_, strStats, err := Sort(Config{Procs: p, Epsilon: 0.1, Seed: 3, StreamExchange: true, ChunkKeys: 1024}, cloneShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if strStats.PeakInFlightBytes == 0 {
		t.Error("streaming path reported zero peak in-flight bytes")
	}
	if strStats.N != matStats.N || strStats.Imbalance != matStats.Imbalance {
		t.Errorf("protocol stats diverged: N %d vs %d, imbalance %v vs %v",
			strStats.N, matStats.N, strStats.Imbalance, matStats.Imbalance)
	}
}
