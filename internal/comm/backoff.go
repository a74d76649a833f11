package comm

// backoff.go holds the dial-retry schedule of every dial a join makes
// (the coordinator, then the peers), plus the tiny deterministic PRNG
// (splitmix64) that seeds its jitter and the fault injector's fates.
// The schedule is capped exponential backoff with jitter: without the
// cap a late-starting coordinator would push waiters into minutes-long
// sleeps; without jitter, p-1 workers started by the same supervisor
// retry in lockstep and hammer the coordinator in synchronized bursts.

import (
	"net"
	"time"
)

const (
	dialBackoffFloor = 10 * time.Millisecond
	dialBackoffCap   = time.Second
)

// splitmix64 advances *x and returns the next value of the splitmix64
// sequence. It is the jitter/fate source everywhere in this package
// because it is seedable (deterministic tests), allocation-free, and
// needs no locking when each user owns its state word.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64Float returns the next value in [0, 1).
func splitmix64Float(x *uint64) float64 {
	return float64(splitmix64(x)>>11) / (1 << 53)
}

// dialRetry dials addr until it succeeds or the deadline expires,
// sleeping between attempts on a capped exponential schedule with
// deterministic jitter (seeded by the local rank, so co-started workers
// desynchronize). It returns the connection and the number of retries
// performed beyond the first attempt — the transport surfaces that
// count as Counters.Reconnects.
func dialRetry(addr string, rank int, deadline time.Time) (net.Conn, int64, error) {
	d := net.Dialer{Deadline: deadline}
	rng := uint64(rank)*0x9e3779b97f4a7c15 + 0x1234567
	backoff := dialBackoffFloor
	var retries int64
	for {
		c, err := d.Dial("tcp", addr)
		if err == nil {
			return c, retries, nil
		}
		// Sleep in [backoff/2, backoff): full value minus up to half
		// jitter keeps the expected schedule exponential while spreading
		// synchronized starters apart.
		sleep := backoff/2 + time.Duration(splitmix64(&rng)%uint64(backoff/2))
		if !time.Now().Add(sleep).Before(deadline) {
			return nil, retries, err
		}
		time.Sleep(sleep)
		retries++
		backoff = min(2*backoff, dialBackoffCap)
	}
}
