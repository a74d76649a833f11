package hssort

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func TestCmpTotalOrder(t *testing.T) {
	c := tagCmp(icmp)
	a := tagged[int64]{key: 5, pe: 0, idx: 0}
	b := tagged[int64]{key: 5, pe: 0, idx: 1}
	d := tagged[int64]{key: 5, pe: 1, idx: 0}
	e := tagged[int64]{key: 6, pe: 0, idx: 0}
	if c(a, b) >= 0 || c(b, d) >= 0 || c(d, e) >= 0 {
		t.Error("order (key, pe, idx) violated")
	}
	if c(a, a) != 0 {
		t.Error("reflexivity violated")
	}
	if c(e, a) <= 0 {
		t.Error("antisymmetry violated")
	}
}

func TestCmpProperty(t *testing.T) {
	c := tagCmp(icmp)
	f := func(k1, k2 int64, pe1, pe2 int16, i1, i2 int16) bool {
		a := tagged[int64]{key: k1, pe: int32(pe1), idx: int32(i1)}
		b := tagged[int64]{key: k2, pe: int32(pe2), idx: int32(i2)}
		// Antisymmetry and distinctness: equal only when identical.
		if c(a, b) == 0 {
			return a == b
		}
		return c(a, b) == -c(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	keys := []int64{5, 5, 3, 5}
	ts := tagWrap(keys, 7)
	for i, tg := range ts {
		if tg.key != keys[i] || tg.pe != 7 || tg.idx != int32(i) {
			t.Fatalf("tag %d = %+v", i, tg)
		}
	}
	if !slices.Equal(tagUnwrap(ts), keys) {
		t.Error("unwrap mismatch")
	}
}

// TestDuplicatesWithTaggingBalances is the §4.3 payoff: an all-duplicates
// input that defeats plain HSS load balance sorts with (1+ε) balance once
// tagged.
func TestDuplicatesWithTaggingBalances(t *testing.T) {
	const p, perRank = 4, 1000
	shards := make([][]int64, p)
	for r := range shards {
		shards[r] = make([]int64, perRank)
		for i := range shards[r] {
			shards[r][i] = int64(i % 2) // two distinct values, massive duplication
		}
	}
	outs := make([][]int64, p)
	var imb float64
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := core.Sort(c, tagWrap(shards[c.Rank()], c.Rank()), core.Options[tagged[int64]]{
			Cmp: tagCmp(icmp), Epsilon: 0.1, Seed: 3,
		})
		if err != nil {
			return err
		}
		outs[c.Rank()] = tagUnwrap(out)
		if c.Rank() == 0 {
			imb = st.Imbalance
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, shards, outs)
	if imb > 1.1+1e-9 {
		t.Errorf("tagged duplicate sort imbalance %.4f, want <= 1+ε", imb)
	}
}

func TestTaggedSortPreservesPerKeyCounts(t *testing.T) {
	f := func(seed uint32) bool {
		const p = 3
		shards := make([][]int64, p)
		counts := map[int64]int{}
		for r := range shards {
			n := int(seed%200) + 10
			shards[r] = make([]int64, n)
			for i := range shards[r] {
				v := int64((int(seed) + i*r) % 5)
				shards[r][i] = v
				counts[v]++
			}
		}
		got := map[int64]int{}
		w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
		var outs [p][]int64
		err := w.Run(func(c *comm.Comm) error {
			out, _, err := core.Sort(c, tagWrap(shards[c.Rank()], c.Rank()), core.Options[tagged[int64]]{
				Cmp: tagCmp(icmp), Epsilon: 0.2, Seed: uint64(seed) + 1,
			})
			outs[c.Rank()] = tagUnwrap(out)
			return err
		})
		if err != nil {
			return false
		}
		for _, o := range outs {
			for _, k := range o {
				got[k]++
			}
		}
		if len(got) != len(counts) {
			return false
		}
		for k, n := range counts {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
