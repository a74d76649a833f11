package comm

import (
	"math/rand/v2"
	"testing"
)

// memModes are the in-memory transport's two accounting modes.
var memModes = []struct {
	name string
	mk   func(p int) *MemTransport
}{{"sim", NewSimTransport}, {"inproc", NewInprocTransport}}

// TestSimSendRecvZeroAlloc pins the steady-state message path of both
// in-memory modes: sending a pre-boxed payload and receiving it
// allocates nothing — the inbox keeps its queue storage.
func TestSimSendRecvZeroAlloc(t *testing.T) {
	for _, mode := range memModes {
		t.Run(mode.name, func(t *testing.T) {
			tr := mode.mk(2)
			var payload any = []int64{1, 2, 3} // boxed once, outside the window
			roundTrip := func() {
				if err := tr.Send(0, 1, 7, payload, 24); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Recv(1, 0, 7); err != nil {
					t.Fatal(err)
				}
			}
			roundTrip() // first use allocates the sender's queue
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
				t.Fatalf("Send+Recv allocated %.1f times per message, want 0", allocs)
			}
		})
	}
}

// TestSimMailboxInterleaved drives rank 0's inbox with many senders and
// interleaved tags against a single arrival-ordered reference queue, on
// sim, inproc and tcp. Specific-source and AnySource receives are mixed,
// on Recv and TryRecv alike: every receive must return exactly the
// message the inbox's documented order picks from the reference — for a
// named source its oldest message on the tag (pairwise FIFO, including
// when another tag's message sits in front of it), for AnySource the
// lowest-ranked sender's oldest match.
func TestSimMailboxInterleaved(t *testing.T) {
	const p = 9
	for _, mode := range memModes {
		t.Run(mode.name, func(t *testing.T) {
			tr := mode.mk(p)
			send := func(src int, tag Tag, id int) error { return tr.Send(src, 0, tag, id, 8) }
			checkInterleaved(t, tr, send, tr.counting)
		})
	}
	t.Run("tcp", func(t *testing.T) {
		lb, err := NewTCPLoopback(p)
		if err != nil {
			t.Fatal(err)
		}
		closeLater(t, lb)
		// Put what the reader delivers for a data frame — the encoded
		// payload, decoded on receipt — since a socket would make arrival
		// asynchronous to the reference.
		send := func(src int, tag Tag, id int) error {
			raw, err := appendWirePayload(nil, id)
			lb.Node(0).box.put(Message{Src: src, Tag: tag, Payload: rawWire(raw), Bytes: int64(frameHeaderLen + len(raw))})
			return err
		}
		checkInterleaved(t, lb, send, true)
	})
}

// checkInterleaved runs the interleaved-receive model against rank 0 of
// tr, with send queueing one message in rank 0's inbox synchronously.
// counted says whether tr's Counters account receives.
func checkInterleaved(t *testing.T, tr Transport, send func(src int, tag Tag, id int) error, counted bool) {
	const tags, steps = 3, 20000
	p := tr.Size()
	rng := rand.New(rand.NewPCG(5, 9))
	type ref struct {
		src int
		tag Tag
		id  int
	}
	var queue []ref // arrival order
	next := 0
	firstMatch := func(src int, tag Tag) int {
		best := -1
		for i, m := range queue {
			if m.tag == tag && (src == AnySource || m.src == src) && (best < 0 || m.src < queue[best].src) {
				best = i
			}
		}
		return best
	}
	for step := 0; step < steps; step++ {
		if len(queue) < 64 && rng.IntN(2) == 0 {
			m := ref{src: 1 + rng.IntN(p-1), tag: Tag(rng.IntN(tags)), id: next}
			next++
			if err := send(m.src, m.tag, m.id); err != nil {
				t.Fatal(err)
			}
			queue = append(queue, m)
			continue
		}
		src, tag := AnySource, Tag(rng.IntN(tags))
		if rng.IntN(3) > 0 {
			src = 1 + rng.IntN(p-1)
		}
		want := firstMatch(src, tag)
		var got Message
		ok := true
		if want < 0 || rng.IntN(2) == 0 {
			var err error
			if got, ok, err = tr.TryRecv(0, src, tag); err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			if got, err = tr.Recv(0, src, tag); err != nil { // a match is queued: cannot block
				t.Fatal(err)
			}
		}
		if ok != (want >= 0) {
			t.Fatalf("step %d: receive (src %d, tag %d) delivered=%v, reference has match=%v", step, src, tag, ok, want >= 0)
		}
		if !ok {
			continue
		}
		w := queue[want]
		if got.Src != w.src || got.Tag != w.tag || got.Payload.(int) != w.id {
			t.Fatalf("step %d: receive (src %d, tag %d) = message %v from %d, want message %d from %d",
				step, src, tag, got.Payload, got.Src, w.id, w.src)
		}
		queue = append(queue[:want], queue[want+1:]...)
	}
	wantRecv := int64(0)
	if counted {
		wantRecv = int64(next - len(queue))
	}
	if c := tr.Counters(0); c.MsgsRecv != wantRecv {
		t.Errorf("MsgsRecv = %d, want %d", c.MsgsRecv, wantRecv)
	}
}

// TestSimLaggingStreamBounded: a stream whose receiver stays a few
// messages behind for its whole life must not grow its queue with the
// messages already consumed, in either in-memory mode.
func TestSimLaggingStreamBounded(t *testing.T) {
	for _, mode := range memModes {
		t.Run(mode.name, func(t *testing.T) {
			tr := mode.mk(2)
			const lag, msgs = 5, 10000
			for i := 0; i < msgs; i++ {
				if err := tr.Send(0, 1, 3, i, 8); err != nil {
					t.Fatal(err)
				}
				if i >= lag {
					m, err := tr.Recv(1, 0, 3)
					if err != nil || m.Payload.(int) != i-lag {
						t.Fatalf("message %d: got %v, %v", i-lag, m.Payload, err)
					}
				}
			}
			if c := cap(tr.boxes[1].bySrc[0]); c > 4*lag {
				t.Fatalf("queue capacity %d after %d messages with %d in flight", c, msgs, lag)
			}
		})
	}
}
