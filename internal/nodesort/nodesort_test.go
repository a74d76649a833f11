package nodesort

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/dist"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func trySort(shards [][]int64, opt core.Options[int64], cores int) ([][]int64, core.Stats, *comm.World, error) {
	p := len(shards)
	outs := make([][]int64, p)
	var stats core.Stats
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := Sort(c, shards[c.Rank()], opt, cores)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			stats = st
		}
		return nil
	})
	return outs, stats, w, err
}

func clone(shards [][]int64) [][]int64 {
	out := make([][]int64, len(shards))
	for i := range shards {
		out[i] = slices.Clone(shards[i])
	}
	return out
}

func checkGloballySorted(t *testing.T, shards, outs [][]int64) {
	t.Helper()
	var want, got []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	for r, out := range outs {
		if !slices.IsSorted(out) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, out...)
	}
	if !slices.Equal(got, want) {
		t.Fatal("output not the sorted permutation of input")
	}
}

func TestNodeSortConfigurations(t *testing.T) {
	const perRank = 800
	// {32, 2} has 16 nodes: its front half stays flat (16 buckets over
	// 32 ranks) and so does its 16-leader exchange.
	for _, cfg := range []struct{ p, c int }{
		{8, 2}, {8, 4}, {8, 8}, {6, 3}, {4, 1}, {12, 4}, {32, 2},
	} {
		spec := dist.Spec{Kind: dist.Uniform}
		shards := spec.Shards(perRank, cfg.p, 3)
		outs, stats, _, err := trySort(clone(shards), core.Options[int64]{Cmp: icmp, Epsilon: 0.05}, cfg.c)
		if err != nil {
			t.Fatalf("p=%d c=%d: %v", cfg.p, cfg.c, err)
		}
		checkGloballySorted(t, shards, outs)
		// Exact within-node quantiles + 5% node-level threshold.
		if stats.Imbalance > 1.06 {
			t.Errorf("p=%d c=%d: imbalance %.4f", cfg.p, cfg.c, stats.Imbalance)
		}
		if stats.Buckets != cfg.p/cfg.c {
			t.Errorf("p=%d c=%d: buckets %d", cfg.p, cfg.c, stats.Buckets)
		}
	}
}

func TestNodeSortSkewed(t *testing.T) {
	const p, c, perRank = 8, 4, 1000
	for _, kind := range []dist.Kind{dist.Exponential, dist.Staircase, dist.PowerSkew} {
		spec := dist.Spec{Kind: kind}
		shards := spec.Shards(perRank, p, 7)
		outs, _, _, err := trySort(clone(shards), core.Options[int64]{Cmp: icmp}, c)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		checkGloballySorted(t, shards, outs)
	}
}

// TestNodeSortReducesMessages is the §6.1 claim: combining node-level
// messages slashes the message count of the data-movement phase.
func TestNodeSortReducesMessages(t *testing.T) {
	const p, c, perRank = 16, 4, 500
	spec := dist.Spec{Kind: dist.Uniform}

	_, _, flatWorld, err := func() ([][]int64, core.Stats, *comm.World, error) {
		shards := spec.Shards(perRank, p, 5)
		outs := make([][]int64, p)
		var stats core.Stats
		w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
		err := w.Run(func(cc *comm.Comm) error {
			out, st, err := core.Sort(cc, shards[cc.Rank()], core.Options[int64]{Cmp: icmp, Epsilon: 0.05})
			outs[cc.Rank()] = out
			if cc.Rank() == 0 {
				stats = st
			}
			return err
		})
		return outs, stats, w, err
	}()
	if err != nil {
		t.Fatal(err)
	}

	shards := spec.Shards(perRank, p, 5)
	_, _, nodeWorld, err := trySort(shards, core.Options[int64]{Cmp: icmp, Epsilon: 0.05}, c)
	if err != nil {
		t.Fatal(err)
	}
	flatMsgs := flatWorld.TotalCounters().MsgsSent
	nodeMsgs := nodeWorld.TotalCounters().MsgsSent
	if nodeMsgs >= flatMsgs {
		t.Errorf("node-level sort sent %d messages, flat sent %d — combining should win", nodeMsgs, flatMsgs)
	}
}

// TestNodeSortValidation: a bad node width or option is rejected on
// every rank before any message is sent.
func TestNodeSortValidation(t *testing.T) {
	valid := core.Options[int64]{Cmp: icmp}
	for _, tc := range []struct {
		name string
		p, c int
		mod  func(*core.Options[int64])
	}{
		{"missing Cmp", 2, 2, func(o *core.Options[int64]) { o.Cmp = nil }},
		{"PrefixCode without Code", 2, 2, func(o *core.Options[int64]) { o.PrefixCode = true }},
		{"negative Epsilon", 2, 2, func(o *core.Options[int64]) { o.Epsilon = -0.1 }},
		{"negative ChunkKeys", 2, 2, func(o *core.Options[int64]) { o.ChunkKeys = -1 }},
		{"wrong splitter count", 4, 2, func(o *core.Options[int64]) { o.Splitters = []int64{1, 2} }},
		{"coresPerNode 0", 2, 0, func(*core.Options[int64]) {}},
		{"p=3, c=2", 3, 2, func(*core.Options[int64]) {}},
	} {
		opt := valid
		tc.mod(&opt)
		shards := make([][]int64, tc.p)
		for r := range shards {
			shards[r] = []int64{3, 1, 2}
		}
		_, _, w, err := trySort(shards, opt, tc.c)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if sent := w.TotalCounters().MsgsSent; sent != 0 {
			t.Errorf("%s: %d messages sent before the rejection", tc.name, sent)
		}
	}
}

func TestNodeSortEmpty(t *testing.T) {
	outs, _, _, err := trySort([][]int64{{}, {}, {}, {}}, core.Options[int64]{Cmp: icmp}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if len(o) != 0 {
			t.Errorf("empty input produced %v", o)
		}
	}
}

func TestNodeSortProperty(t *testing.T) {
	f := func(seed uint32, cfgRaw uint8) bool {
		cfgs := []struct{ p, c int }{{4, 2}, {6, 2}, {8, 4}, {9, 3}, {4, 4}}
		cfg := cfgs[int(cfgRaw)%len(cfgs)]
		spec := dist.Spec{Kind: dist.Kind(seed % 6), Min: 0, Max: 1 << 24}
		shards := make([][]int64, cfg.p)
		for r := range shards {
			shards[r] = spec.Shard(int(seed%300)+30, r, cfg.p, uint64(seed))
		}
		outs, _, _, err := trySort(clone(shards), core.Options[int64]{Cmp: icmp, Epsilon: 0.1, Seed: uint64(seed) + 1}, cfg.c)
		if err != nil {
			t.Log(err)
			return false
		}
		var want, got []int64
		for _, s := range shards {
			want = append(want, s...)
		}
		slices.Sort(want)
		for _, o := range outs {
			if !slices.IsSorted(o) {
				return false
			}
			got = append(got, o...)
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
