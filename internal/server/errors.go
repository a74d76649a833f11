package server

import "fmt"

// The daemon's typed admission and lookup failures. The HTTP front end
// maps QuotaExceededError to 429 and JobNotFoundError to 404.

// QuotaExceededError reports that a job submission was refused by
// admission control: the daemon's bounded FIFO queue is full (or the
// submitting tenant has exhausted a per-tenant bound). The request was
// not enqueued; the client should back off and retry.
type QuotaExceededError struct {
	// Tenant is the submitting tenant.
	Tenant string
	// Queued is the number of jobs waiting when the submission was
	// refused, and Capacity the queue bound it ran into.
	Queued, Capacity int
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("hssort: tenant %q refused by admission control: %d of %d queue slots in use", e.Tenant, e.Queued, e.Capacity)
}

// JobNotFoundError reports a job-status or result lookup for an ID the
// daemon does not hold: never submitted, submitted by another tenant,
// or already evicted from the finished-job window.
type JobNotFoundError struct {
	// ID is the job ID that failed to resolve.
	ID string
}

func (e *JobNotFoundError) Error() string {
	return fmt.Sprintf("hssort: no job %q", e.ID)
}
