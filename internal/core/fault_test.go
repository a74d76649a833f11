package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
)

// cutLink fails every send from src to dst once the world has sent more
// than after messages: a link that goes down mid-run.
type cutLink struct {
	comm.Transport
	src, dst int
	after    int64
	err      error
	sent     atomic.Int64
}

func (l *cutLink) Send(src, dst int, tag comm.Tag, payload any, bytes int64) error {
	if l.sent.Add(1) > l.after && src == l.src && dst == l.dst {
		return l.err
	}
	return l.Transport.Send(src, dst, tag, payload, bytes)
}

// TestSortSurvivesAsErrorWhenLinkFails injects a link failure mid-run:
// the sort must surface an error on every rank (via the failed send plus
// the world timeout) rather than hanging or panicking.
func TestSortSurvivesAsErrorWhenLinkFails(t *testing.T) {
	const p = 6
	linkDown := errors.New("injected link failure")
	// Let the early collectives through, then cut one link.
	link := &cutLink{Transport: comm.NewSimTransport(p), src: 2, dst: 0, after: 40, err: linkDown}
	w := comm.NewWorld(p, comm.WithTimeout(2*time.Second), comm.WithTransport(link))
	shards := dist.Spec{Kind: dist.Uniform}.Shards(2000, p, 3)
	err := w.Run(func(c *comm.Comm) error {
		_, _, err := Sort(c, shards[c.Rank()], Options[int64]{Cmp: icmp, Epsilon: 0.1})
		return err
	})
	if err == nil {
		t.Fatal("sort reported success across a dead link")
	}
	// The originating rank must see the injected error itself; the rest
	// fail via the abort.
	if !errors.Is(err, linkDown) && !errors.Is(err, comm.ErrAborted) {
		t.Errorf("error chain carries neither the injection nor the abort: %v", err)
	}
}

// TestConcurrentWorldsIsolated runs two independent sorts concurrently:
// worlds must not share any state (tags, counters, mailboxes).
func TestConcurrentWorldsIsolated(t *testing.T) {
	const p = 4
	run := func(seed uint64, out chan<- error) {
		shards := dist.Spec{Kind: dist.Gaussian}.Shards(3000, p, seed)
		w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
		out <- w.Run(func(c *comm.Comm) error {
			sorted, st, err := Sort(c, shards[c.Rank()], Options[int64]{Cmp: icmp, Epsilon: 0.1, Seed: seed})
			if err != nil {
				return err
			}
			if len(sorted) == 0 || st.N != p*3000 {
				return errors.New("bogus result under concurrency")
			}
			return nil
		})
	}
	errs := make(chan error, 2)
	go run(1, errs)
	go run(2, errs)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
