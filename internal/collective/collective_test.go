package collective

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
)

// worldSizes exercises powers of two, odd sizes, and the trivial world.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func runWorld(t *testing.T, p int, fn func(c *comm.Comm) error) {
	t.Helper()
	w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
	if err := w.Run(fn); err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range worldSizes {
		for root := 0; root < p; root++ {
			want := []int64{10, 20, 30, int64(root)}
			runWorld(t, p, func(c *comm.Comm) error {
				var in []int64
				if c.Rank() == root {
					in = slices.Clone(want)
				}
				got, err := Bcast(c, root, 1, in)
				if err != nil {
					return err
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("rank %d got %v", c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestBcastValue(t *testing.T) {
	runWorld(t, 5, func(c *comm.Comm) error {
		var v string
		if c.Rank() == 2 {
			v = "hello"
		}
		got, err := BcastValue(c, 2, 1, v)
		if err != nil {
			return err
		}
		if got != "hello" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
}

func TestBcastEmptySlice(t *testing.T) {
	runWorld(t, 4, func(c *comm.Comm) error {
		var in []int64
		if c.Rank() == 0 {
			in = []int64{}
		}
		got, err := Bcast(c, 0, 1, in)
		if err != nil {
			return err
		}
		if len(got) != 0 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	for _, p := range worldSizes {
		for root := 0; root < p; root += max(1, p/3) {
			runWorld(t, p, func(c *comm.Comm) error {
				data := []int64{int64(c.Rank()), 1, int64(c.Rank() * 2)}
				got, err := Reduce(c, root, 1, data, SumInt64)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return errors.New("non-root got non-nil reduction")
					}
					return nil
				}
				s := int64(p * (p - 1) / 2)
				want := []int64{s, int64(p), 2 * s}
				if !slices.Equal(got, want) {
					return fmt.Errorf("root got %v, want %v", got, want)
				}
				return nil
			})
		}
	}
}

func TestAllReduce(t *testing.T) {
	const p = 6
	runWorld(t, p, func(c *comm.Comm) error {
		got, err := AllReduce(c, 1, []int64{1, int64(c.Rank())}, SumInt64)
		if err != nil {
			return err
		}
		want := []int64{p, p * (p - 1) / 2}
		if !slices.Equal(got, want) {
			return fmt.Errorf("rank %d got %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
}

func TestGathervAllSizes(t *testing.T) {
	for _, p := range worldSizes {
		for root := 0; root < p; root += max(1, p/2) {
			runWorld(t, p, func(c *comm.Comm) error {
				// Rank r contributes r+1 copies of r: variable lengths.
				mine := make([]int64, c.Rank()+1)
				for i := range mine {
					mine[i] = int64(c.Rank())
				}
				parts, err := Gatherv(c, root, 1, mine)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if parts != nil {
						return errors.New("non-root got parts")
					}
					return nil
				}
				if len(parts) != p {
					return fmt.Errorf("got %d parts", len(parts))
				}
				for r, pt := range parts {
					if len(pt) != r+1 {
						return fmt.Errorf("part %d has len %d", r, len(pt))
					}
					for _, v := range pt {
						if v != int64(r) {
							return fmt.Errorf("part %d contains %d", r, v)
						}
					}
				}
				return nil
			})
		}
	}
}

func TestAllToAllv(t *testing.T) {
	for _, p := range worldSizes {
		runWorld(t, p, func(c *comm.Comm) error {
			parts := make([][]int64, p)
			for dst := range parts {
				// Rank r sends {r*1000 + dst} repeated (dst+1) times.
				parts[dst] = make([]int64, dst+1)
				for i := range parts[dst] {
					parts[dst][i] = int64(c.Rank()*1000 + dst)
				}
			}
			got, err := AllToAllv(c, 1, parts)
			if err != nil {
				return err
			}
			for src, pt := range got {
				if len(pt) != c.Rank()+1 {
					return fmt.Errorf("from %d: len %d, want %d", src, len(pt), c.Rank()+1)
				}
				for _, v := range pt {
					if v != int64(src*1000+c.Rank()) {
						return fmt.Errorf("from %d: got %d", src, v)
					}
				}
			}
			return nil
		})
	}
}

func TestAllToAllvWrongPartCount(t *testing.T) {
	w := comm.NewWorld(2, comm.WithTimeout(time.Second))
	err := w.Run(func(c *comm.Comm) error {
		_, err := AllToAllv(c, 1, [][]int64{{1}})
		if err == nil {
			return errors.New("no error for wrong part count")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupBasics(t *testing.T) {
	const p = 8
	runWorld(t, p, func(c *comm.Comm) error {
		if c.Rank()%2 != 0 {
			return nil // odd ranks sit out
		}
		g, err := NewGroup(c, []int{0, 2, 4, 6})
		if err != nil {
			return err
		}
		if g.Size() != 4 || g.Rank() != c.Rank()/2 {
			return fmt.Errorf("rank %d: group rank %d size %d", c.Rank(), g.Rank(), g.Size())
		}
		// Collectives over the group.
		got, err := AllReduce(g, 50, []int64{1}, SumInt64)
		if err != nil {
			return err
		}
		if got[0] != 4 {
			return fmt.Errorf("group allreduce got %d", got[0])
		}
		return nil
	})
}

func TestGroupRejectsBadMembership(t *testing.T) {
	runWorld(t, 4, func(c *comm.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := NewGroup(c, []int{1, 2}); err == nil {
			return errors.New("group without caller accepted")
		}
		if _, err := NewGroup(c, []int{0, 0, 1}); err == nil {
			return errors.New("duplicate member accepted")
		}
		if _, err := NewGroup(c, []int{0, 9}); err == nil {
			return errors.New("out-of-range member accepted")
		}
		return nil
	})
}

func TestGroupAnySourceRejected(t *testing.T) {
	runWorld(t, 2, func(c *comm.Comm) error {
		g, err := NewGroup(c, []int{0, 1})
		if err != nil {
			return err
		}
		if _, err := g.Recv(comm.AnySource, 1); err == nil {
			return errors.New("AnySource accepted in group")
		}
		return nil
	})
}

func TestGroupIsolation(t *testing.T) {
	// Two disjoint groups run the same collective with group-distinct
	// tags concurrently; results must not bleed across groups.
	const p = 8
	runWorld(t, p, func(c *comm.Comm) error {
		color := c.Rank() % 2
		var members []int
		for r := color; r < p; r += 2 {
			members = append(members, r)
		}
		g, err := NewGroup(c, members)
		if err != nil {
			return err
		}
		tag := comm.Tag(100 + color)
		got, err := AllReduce(g, tag, []int64{int64(color + 1)}, SumInt64)
		if err != nil {
			return err
		}
		want := int64((color + 1) * 4)
		if got[0] != want {
			return fmt.Errorf("group %d got %d, want %d", color, got[0], want)
		}
		return nil
	})
}

// TestCollectivesProperty drives random collectives against sequential
// references.
func TestCollectivesProperty(t *testing.T) {
	f := func(seed uint32, pRaw, nRaw uint8) bool {
		p := int(pRaw%10) + 1
		n := int(nRaw%64) + 1
		root := int(seed) % p
		rng := rand.New(rand.NewPCG(uint64(seed), 9))
		inputs := make([][]int64, p)
		for r := range inputs {
			inputs[r] = make([]int64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Int64N(1 << 30)
			}
		}
		want := make([]int64, n)
		for _, in := range inputs {
			SumInt64(want, in)
		}
		w := comm.NewWorld(p, comm.WithTimeout(10*time.Second))
		ok := true
		err := w.Run(func(c *comm.Comm) error {
			got, err := Reduce(c, root, 1, slices.Clone(inputs[c.Rank()]), SumInt64)
			if err != nil {
				return err
			}
			if c.Rank() == root && !slices.Equal(got, want) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
