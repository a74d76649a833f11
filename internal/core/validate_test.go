package core_test

import (
	"cmp"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/histsort"
	"hssort/internal/keycoder"
	"hssort/internal/samplesort"
)

// TestSharedOptionsRejectedBeforeAnyWork: the skeleton validates the
// shared options first under every strategy, so each invalid value comes
// back as an error from every algorithm family with no message sent —
// sample sort used to radix-sort the shard and all-reduce the key count
// before it looked.
func TestSharedOptionsRejectedBeforeAnyWork(t *testing.T) {
	const p = 4
	icmp := func(a, b int64) int { return cmp.Compare(a, b) }
	valid := core.Options[int64]{Cmp: icmp}
	invalid := []struct {
		name string
		mod  func(*core.Options[int64])
	}{
		{"missing Cmp", func(o *core.Options[int64]) { o.Cmp = nil }},
		{"PrefixCode without Code", func(o *core.Options[int64]) { o.PrefixCode = true }},
		{"negative Epsilon", func(o *core.Options[int64]) { o.Epsilon = -0.1 }},
		{"negative ChunkKeys", func(o *core.Options[int64]) { o.ChunkKeys = -1 }},
		{"wrong splitter count", func(o *core.Options[int64]) { o.Splitters = []int64{1, 2} }},
	}
	families := []struct {
		name string
		sort func(c *comm.Comm, local []int64, opt core.Options[int64]) error
	}{
		{"hss", func(c *comm.Comm, local []int64, opt core.Options[int64]) error {
			_, _, err := core.Sort(c, local, opt)
			return err
		}},
		{"samplesort", func(c *comm.Comm, local []int64, opt core.Options[int64]) error {
			_, _, err := samplesort.Sort(c, local, opt, samplesort.Options{Method: samplesort.Random})
			return err
		}},
		{"histsort", func(c *comm.Comm, local []int64, opt core.Options[int64]) error {
			_, _, err := histsort.Sort(c, local, opt, histsort.Options[int64]{Coder: keycoder.Int64{}})
			return err
		}},
	}
	for _, fam := range families {
		for _, bad := range invalid {
			t.Run(fam.name+"/"+bad.name, func(t *testing.T) {
				opt := valid
				bad.mod(&opt)
				w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
				accepted := make([]bool, p)
				if err := w.Run(func(c *comm.Comm) error {
					accepted[c.Rank()] = fam.sort(c, []int64{3, 1, 2}, opt) == nil
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for r, ok := range accepted {
					if ok {
						t.Errorf("rank %d accepted the option", r)
					}
				}
				if sent := w.TotalCounters().MsgsSent; sent != 0 {
					t.Errorf("%d messages sent before the option was rejected", sent)
				}
			})
		}
	}
}
