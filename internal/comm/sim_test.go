package comm

import (
	"math/rand/v2"
	"testing"
)

// TestSimSendRecvZeroAlloc pins the steady-state message path: with no
// interceptor installed, sending a pre-boxed payload and receiving it
// allocates nothing — the Message is not moved to the heap for the
// interceptor's sake, and the mailbox recycles its queue nodes.
func TestSimSendRecvZeroAlloc(t *testing.T) {
	tr := NewSimTransport(2)
	var payload any = []int64{1, 2, 3} // boxed once, outside the window
	roundTrip := func() {
		if err := tr.Send(0, 1, 7, payload, 24); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Recv(1, 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // first use allocates the mailbox's one node
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("Send+Recv allocated %.1f times per message, want 0", allocs)
	}
}

// TestSimMailboxInterleaved drives one mailbox with many senders and
// interleaved tags against a single arrival-ordered reference queue —
// the model the doubly-listed mailbox replaced. Specific-source and AnySource
// receives are mixed, on Recv and TryRecv alike: every receive must
// return exactly the message the reference queue's first match is, which
// for AnySource asserts arrival order across senders and for a named
// source the pairwise FIFO rule per tag, including when another tag's
// message sits in front of it.
func TestSimMailboxInterleaved(t *testing.T) {
	const p, tags, steps = 9, 3, 20000
	rng := rand.New(rand.NewPCG(5, 9))
	tr := NewSimTransport(p)
	type ref struct {
		src int
		tag Tag
		id  int
	}
	var queue []ref // arrival order
	next := 0
	firstMatch := func(src int, tag Tag) int {
		for i, m := range queue {
			if (src == AnySource || m.src == src) && m.tag == tag {
				return i
			}
		}
		return -1
	}
	for step := 0; step < steps; step++ {
		if len(queue) < 64 && rng.IntN(2) == 0 {
			m := ref{src: 1 + rng.IntN(p-1), tag: Tag(rng.IntN(tags)), id: next}
			next++
			if err := tr.Send(m.src, 0, m.tag, m.id, 8); err != nil {
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
	if c := tr.Counters(0); c.MsgsRecv != int64(next-len(queue)) {
		t.Errorf("MsgsRecv = %d, want %d", c.MsgsRecv, next-len(queue))
	}
}

// TestSimLaggingStreamBounded: a stream whose receiver stays a few
// messages behind for its whole life must not grow its queue with the
// messages already consumed.
func TestSimLaggingStreamBounded(t *testing.T) {
	tr := NewSimTransport(2)
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
	if c := cap(tr.boxes[1].nodes); c > 4*lag {
		t.Fatalf("queue capacity %d after %d messages with %d in flight", c, msgs, lag)
	}
}
