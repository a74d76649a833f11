package server

import (
	"errors"
	"sync"
)

// errDraining refuses work arriving after drain began; the HTTP layer
// maps it to 503.
var errDraining = errors.New("hssortd: draining, not accepting jobs")

// scheduler is the multi-tenant job scheduler between the HTTP layer
// and the engine pool:
//
//   - Admission control: a bounded FIFO queue. Submissions past the
//     bound are refused with a typed *QuotaExceededError (429) —
//     load sheds at the front door instead of piling onto the engines.
//   - Fair dequeue: jobs queue per tenant and workers pick round-robin
//     across tenants, so one tenant's burst cannot starve another's
//     single job behind it.
//   - Per-tenant quotas: at most quota jobs of one tenant run at once;
//     a tenant at quota keeps its place in the ring while others run.
//   - Drain: beginDrain stops admission, wait returns once every
//     admitted job has finished — the SIGTERM path.
//
// Job deadlines and cancellation are not the scheduler's concern: each
// job carries its own context, and the worker hands it to the engine,
// which aborts mid-phase wherever the sort is.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	capQueue int
	quota    int

	queues  map[string][]*job // per-tenant FIFO
	ring    []string          // tenants with queued jobs, round-robin order
	rr      int               // next ring slot to inspect
	queued  int
	running map[string]int
	active  int // total running

	draining bool

	run func(*job) // executes one job (set by the server)
	wg  sync.WaitGroup

	// testGate, when non-nil, is called with each job after dequeue and
	// before run — the test suite's hook for holding jobs mid-flight to
	// pin quota and fairness behavior deterministically.
	testGate func(*job)
}

func newScheduler(queueDepth, quota, workers int, run func(*job)) *scheduler {
	s := &scheduler{
		capQueue: queueDepth,
		quota:    quota,
		queues:   make(map[string][]*job),
		running:  make(map[string]int),
		run:      run,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit enqueues a job, refusing when draining or when the admission
// queue is full.
func (s *scheduler) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if s.queued >= s.capQueue {
		return &QuotaExceededError{Tenant: j.tenant, Queued: s.queued, Capacity: s.capQueue}
	}
	if len(s.queues[j.tenant]) == 0 {
		s.ring = append(s.ring, j.tenant)
	}
	s.queues[j.tenant] = append(s.queues[j.tenant], j)
	s.queued++
	s.cond.Broadcast()
	return nil
}

// pickLocked dequeues the next runnable job: round-robin over the
// tenant ring, skipping tenants at their running quota. Returns nil
// when nothing is runnable. Caller holds s.mu.
func (s *scheduler) pickLocked() *job {
	for i := 0; i < len(s.ring); i++ {
		slot := (s.rr + i) % len(s.ring)
		tenant := s.ring[slot]
		if s.running[tenant] >= s.quota {
			continue
		}
		q := s.queues[tenant]
		j := q[0]
		if len(q) == 1 {
			delete(s.queues, tenant)
			s.ring = append(s.ring[:slot], s.ring[slot+1:]...)
			s.rr = slot // the tenant after the removed one now sits here
		} else {
			s.queues[tenant] = q[1:]
			s.rr = slot + 1
		}
		if len(s.ring) > 0 {
			s.rr %= len(s.ring)
		} else {
			s.rr = 0
		}
		s.queued--
		return j
	}
	return nil
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			if j = s.pickLocked(); j != nil {
				break
			}
			if s.draining && s.queued == 0 {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		s.running[j.tenant]++
		s.active++
		s.mu.Unlock()

		if s.testGate != nil {
			s.testGate(j)
		}
		s.run(j)

		s.mu.Lock()
		s.running[j.tenant]--
		if s.running[j.tenant] == 0 {
			delete(s.running, j.tenant)
		}
		s.active--
		// A finished job frees a quota slot and, during drain, may be
		// the event that lets the workers observe an empty queue.
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// depth reports (queued, running) for the metrics gauges.
func (s *scheduler) depth() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.active
}

// isDraining reports whether drain has begun (healthz flips to 503).
func (s *scheduler) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginDrain stops admission. Queued and running jobs keep going.
func (s *scheduler) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// wait blocks until every admitted job has finished and the workers
// have exited. Call after beginDrain.
func (s *scheduler) wait() {
	s.wg.Wait()
}
