package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testJob builds a bare job for scheduler-level tests (no payload, no
// engine involvement).
func testJob(tenant string) *job {
	return &job{tenant: tenant, done: make(chan struct{}), status: statusQueued}
}

// TestSchedulerQueueFull checks admission control: submissions past the
// queue bound are refused with the typed quota error, and the refusal
// carries the queue numbers.
func TestSchedulerQueueFull(t *testing.T) {
	gate := make(chan struct{})
	s := newScheduler(2, 1, 1, func(j *job) { close(j.done) })
	s.testGate = func(*job) { <-gate }
	defer func() {
		close(gate)
		s.beginDrain()
		s.wait()
	}()

	// First job is dequeued and held at the gate; it no longer occupies
	// a queue slot.
	held := testJob("a")
	if err := s.submit(held); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, running := s.depth(); return running == 1 })

	if err := s.submit(testJob("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(testJob("b")); err != nil {
		t.Fatal(err)
	}
	err := s.submit(testJob("c"))
	var quota *QuotaExceededError
	if !errors.As(err, &quota) {
		t.Fatalf("submit into a full queue returned %v, want *QuotaExceededError", err)
	}
	if quota.Tenant != "c" || quota.Queued != 2 || quota.Capacity != 2 {
		t.Errorf("quota error carries %+v, want tenant c, 2/2", quota)
	}
}

// TestSchedulerTenantQuota checks the per-tenant running cap: with
// plenty of free workers, one tenant never runs more than quota jobs at
// once, while a second tenant's jobs are unaffected.
func TestSchedulerTenantQuota(t *testing.T) {
	var mu sync.Mutex
	running := make(map[string]int)
	peak := make(map[string]int)
	s := newScheduler(64, 2, 8, func(j *job) {
		mu.Lock()
		running[j.tenant]++
		if running[j.tenant] > peak[j.tenant] {
			peak[j.tenant] = running[j.tenant]
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		running[j.tenant]--
		mu.Unlock()
		close(j.done)
	})

	var jobs []*job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, testJob("a"), testJob("b"))
	}
	for _, j := range jobs {
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		<-j.done
	}
	s.beginDrain()
	s.wait()

	mu.Lock()
	defer mu.Unlock()
	for _, tenant := range []string{"a", "b"} {
		if peak[tenant] > 2 {
			t.Errorf("tenant %s peaked at %d running jobs, quota is 2", tenant, peak[tenant])
		}
		if peak[tenant] == 0 {
			t.Errorf("tenant %s never ran", tenant)
		}
	}
}

// TestSchedulerFairDequeue checks round-robin across tenants: a tenant
// arriving behind another tenant's burst runs before the burst ends.
func TestSchedulerFairDequeue(t *testing.T) {
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	s := newScheduler(64, 1, 1, func(j *job) {
		mu.Lock()
		order = append(order, j.tenant+":"+j.id)
		mu.Unlock()
		close(j.done)
	})
	s.testGate = func(j *job) {
		if j.id == "hold" {
			<-gate
		}
	}

	// The held job pins the single worker while the burst and the
	// latecomer queue up behind it.
	held := testJob("a")
	held.id = "hold"
	if err := s.submit(held); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, running := s.depth(); return running == 1 })

	var burst []*job
	for i := 0; i < 4; i++ {
		j := testJob("a")
		j.id = fmt.Sprintf("a%d", i)
		burst = append(burst, j)
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	late := testJob("b")
	late.id = "b0"
	if err := s.submit(late); err != nil {
		t.Fatal(err)
	}

	close(gate)
	for _, j := range append(burst, late, held) {
		<-j.done
	}
	s.beginDrain()
	s.wait()

	mu.Lock()
	defer mu.Unlock()
	pos := func(id string) int {
		for i, e := range order {
			if e == "a:"+id || e == "b:"+id {
				return i
			}
		}
		t.Fatalf("%s never ran (order %v)", id, order)
		return -1
	}
	// Round-robin: b's single job must not sit behind a's whole burst.
	if pos("b0") > pos("a1") {
		t.Errorf("latecomer tenant b ran at %d, after most of tenant a's burst: %v", pos("b0"), order)
	}
}

// TestSchedulerDrain checks the drain contract: admission stops with
// errDraining, every admitted job still finishes, wait returns, and the
// workers exit.
func TestSchedulerDrain(t *testing.T) {
	var ran atomic.Int64
	s := newScheduler(64, 2, 4, func(j *job) {
		ran.Add(1)
		close(j.done)
	})
	var jobs []*job
	for i := 0; i < 12; i++ {
		j := testJob(fmt.Sprintf("t%d", i%3))
		jobs = append(jobs, j)
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.beginDrain()
	if err := s.submit(testJob("late")); !errors.Is(err, errDraining) {
		t.Errorf("submit after beginDrain returned %v, want errDraining", err)
	}
	s.wait()
	if got := ran.Load(); got != 12 {
		t.Errorf("drain finished %d of 12 admitted jobs", got)
	}
	queued, running := s.depth()
	if queued != 0 || running != 0 {
		t.Errorf("after drain: %d queued, %d running", queued, running)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
