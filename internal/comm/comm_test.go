package comm

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPingPong(t *testing.T) {
	w := NewWorld(2, WithTimeout(5*time.Second))
	err := w.Run(func(c *Comm) error {
		const tag Tag = 1
		if c.Rank() == 0 {
			if err := SendValue(c, 1, tag, 42); err != nil {
				return err
			}
			v, err := RecvValue[int](c, 1, tag)
			if err != nil {
				return err
			}
			if v != 43 {
				return fmt.Errorf("got %d, want 43", v)
			}
			return nil
		}
		v, err := RecvValue[int](c, 0, tag)
		if err != nil {
			return err
		}
		return SendValue(c, 0, tag, v+1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseFIFO(t *testing.T) {
	const n = 200
	w := NewWorld(2, WithTimeout(5*time.Second))
	err := w.Run(func(c *Comm) error {
		const tag Tag = 7
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := SendValue(c, 1, tag, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			v, err := RecvValue[int](c, 0, tag)
			if err != nil {
				return err
			}
			if v != i {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingSkipsNonMatching(t *testing.T) {
	w := NewWorld(2, WithTimeout(5*time.Second))
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := SendValue(c, 1, 2, "second"); err != nil {
				return err
			}
			return SendValue(c, 1, 1, "first")
		}
		a, err := RecvValue[string](c, 0, 1)
		if err != nil {
			return err
		}
		b, err := RecvValue[string](c, 0, 2)
		if err != nil {
			return err
		}
		if a != "first" || b != "second" {
			return fmt.Errorf("tag matching broken: got %q, %q", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySource(t *testing.T) {
	const p = 8
	w := NewWorld(p, WithTimeout(5*time.Second))
	err := w.Run(func(c *Comm) error {
		const tag Tag = 3
		if c.Rank() == 0 {
			seen := make(map[int]bool)
			for i := 0; i < p-1; i++ {
				m, err := c.Recv(AnySource, tag)
				if err != nil {
					return err
				}
				if seen[m.Src] {
					return fmt.Errorf("duplicate message from %d", m.Src)
				}
				seen[m.Src] = true
				if m.Payload.(int) != m.Src*10 {
					return fmt.Errorf("wrong payload from %d: %v", m.Src, m.Payload)
				}
			}
			return nil
		}
		return SendValue(c, 0, tag, c.Rank()*10)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(1, WithTimeout(5*time.Second))
	err := w.Run(func(c *Comm) error {
		if err := SendValue(c, 0, 9, 5); err != nil {
			return err
		}
		v, err := RecvValue[int](c, 0, 9)
		if err != nil {
			return err
		}
		if v != 5 {
			return fmt.Errorf("self-send got %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	w := NewWorld(2, WithTimeout(time.Second))
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := SendValue(c, 5, 0, 1); err == nil {
			return errors.New("send to invalid rank succeeded")
		}
		if err := SendValue(c, -1, 0, 1); err == nil {
			return errors.New("send to rank -1 succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvInvalidRank(t *testing.T) {
	w := NewWorld(2, WithTimeout(time.Second))
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := c.Recv(17, 0); err == nil {
			return errors.New("recv from invalid rank succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicAbortsWorld(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("rank 0 exploded")
		}
		// Rank 1 would block forever without panic propagation.
		_, err := c.Recv(0, 1)
		return err
	})
	if err == nil {
		t.Fatal("expected error from panicked world")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error %q does not mention the panic", err)
	}
}

func TestTimeoutUnblocksDeadlock(t *testing.T) {
	w := NewWorld(2, WithTimeout(50*time.Millisecond))
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		// Both ranks receive; nobody sends: a protocol deadlock.
		_, err := c.Recv((c.Rank()+1)%2, 1)
		return err
	})
	if err == nil {
		t.Fatal("deadlocked world returned nil error")
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("error %v is not ErrAborted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestCounters(t *testing.T) {
	w := NewWorld(2, WithTimeout(5*time.Second))
	payload := []int64{1, 2, 3, 4}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice(c, 1, 1, payload)
		}
		_, err := RecvSlice[int64](c, 0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := w.Counters(0), w.Counters(1)
	if c0.MsgsSent != 1 || c0.BytesSent != 32 {
		t.Errorf("rank 0 sent counters = %+v, want 1 msg / 32 bytes", c0)
	}
	if c1.MsgsRecv != 1 || c1.BytesRecv != 32 {
		t.Errorf("rank 1 recv counters = %+v, want 1 msg / 32 bytes", c1)
	}
	total := w.TotalCounters()
	if total.MsgsSent != total.MsgsRecv {
		t.Errorf("total sent %d != total recv %d", total.MsgsSent, total.MsgsRecv)
	}
	w.Transport().Reset()
	if w.TotalCounters() != (Counters{}) {
		t.Error("Reset did not zero counters")
	}
}

func TestTypeMismatchDetected(t *testing.T) {
	w := NewWorld(2, WithTimeout(time.Second))
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return SendValue(c, 1, 1, "not an int")
		}
		if _, err := RecvValue[int](c, 0, 1); err == nil {
			return errors.New("type mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNilSliceRoundTrip(t *testing.T) {
	w := NewWorld(2, WithTimeout(time.Second))
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return SendSlice[int64](c, 1, 1, nil)
		}
		s, err := RecvSlice[int64](c, 0, 1)
		if err != nil {
			return err
		}
		if len(s) != 0 {
			return fmt.Errorf("nil slice arrived as %v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

// TestMessageStorm is a property test: under a random all-pairs traffic
// pattern every message is delivered exactly once with its payload intact.
func TestMessageStorm(t *testing.T) {
	f := func(seed uint32, pRaw, nRaw uint8) bool {
		p := int(pRaw%6) + 2
		msgsPerRank := int(nRaw%20) + 1
		w := NewWorld(p, WithTimeout(10*time.Second))
		var delivered atomic.Int64
		err := w.Run(func(c *Comm) error {
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(c.Rank())))
			const tag Tag = 11
			// Everyone sends msgsPerRank messages to random peers, then
			// announces its per-peer counts so receivers know what to expect.
			counts := make([]int, p)
			for i := 0; i < msgsPerRank; i++ {
				dst := rng.IntN(p)
				counts[dst]++
				if err := SendValue(c, dst, tag, c.Rank()*1000+i); err != nil {
					return err
				}
			}
			for dst := 0; dst < p; dst++ {
				if err := SendValue(c, dst, tag+1, counts[dst]); err != nil {
					return err
				}
			}
			expect := 0
			for src := 0; src < p; src++ {
				n, err := RecvValue[int](c, src, tag+1)
				if err != nil {
					return err
				}
				expect += n
			}
			for i := 0; i < expect; i++ {
				v, err := RecvValue[int](c, AnySource, tag)
				if err != nil {
					return err
				}
				if v < 0 || v >= p*1000+msgsPerRank {
					return fmt.Errorf("corrupt payload %d", v)
				}
				delivered.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return delivered.Load() == int64(p*msgsPerRank)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf[int64]() != 8 || SizeOf[int32]() != 4 || SizeOf[byte]() != 1 {
		t.Error("SizeOf wrong for primitive types")
	}
	if SliceBytes([]uint64{1, 2, 3}) != 24 {
		t.Error("SliceBytes wrong")
	}
}

func BenchmarkSendRecvLatency(b *testing.B) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < b.N; i++ {
					if err := SendValue(c, 1, 1, i); err != nil {
						return err
					}
					if _, err := RecvValue[int](c, 1, 2); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < b.N; i++ {
				if _, err := RecvValue[int](c, 0, 1); err != nil {
					return err
				}
				if err := SendValue(c, 0, 2, i); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	<-done
}
