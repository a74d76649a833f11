package comm

// errors.go defines the typed failure taxonomy of the transport layer.
// Before these types existed, peer death, bootstrap failures and
// protocol-version mixes all surfaced as formatted strings; callers that
// wanted to react (retry a bootstrap, trigger a respawn, refuse a
// mixed-version fleet) had to match message text. Each condition now has
// a structured error with errors.Is/As support, and the TCP wire
// protocol carries enough of that structure (wireAbort.Crash/CrashRank/
// CrashInc) that every surviving process of a crashed world reconstructs
// the same typed value.
//
// A *PeerCrashError is also the TCP transport's liveness record: the
// conn a crash retired keeps it, and a rank is lost exactly while its
// slot holds a retired conn (tcp.go).

import (
	"fmt"
)

// PeerCrashError reports that a peer rank of a TCP world died: its
// connection delivered an EOF without a shutdown frame, its heartbeats
// went silent past TCPOptions.PeerTimeout, or a fault injector crashed
// it. Every surviving rank of the world observes a PeerCrashError with
// the same Rank — locally detected or reconstructed from the abort
// broadcast — so a supervisor can respawn exactly the rank that died.
//
// PeerCrashError matches errors.Is(err, ErrAborted): a crash aborts the
// world like any other failure, it is just a diagnosable one.
type PeerCrashError struct {
	// Rank is the rank that crashed.
	Rank int
	// Incarnation says which life of Rank died: 0 for the process that
	// bootstrapped the world, +1 for each rejoin since. Like Rank it is
	// the same on every survivor, and it is what stops a late report of
	// one death from being charged to the rank's successor. Always 0
	// outside the TCP transport.
	Incarnation uint32
	// Err is the local evidence (EOF, timeout, injected fault); it may
	// differ between survivors, unlike Rank. May be nil for an error
	// reconstructed off the wire.
	Err error
}

// Error returns the crash description.
func (e *PeerCrashError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("comm: rank %d crashed: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("comm: rank %d crashed", e.Rank)
}

// Unwrap links the crash to ErrAborted (and to the local evidence), so
// existing errors.Is(err, ErrAborted) call sites keep working.
func (e *PeerCrashError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrAborted, e.Err}
	}
	return []error{ErrAborted}
}

// BootstrapError reports that a TCP endpoint failed to join its world,
// at bootstrap or at a rejoin: the registration, a data handshake or
// the wait for a whole mesh did not complete. DialTCP wraps every setup
// failure in one, so callers can distinguish "the world never formed"
// from runtime failures like PeerCrashError.
type BootstrapError struct {
	// Rank is the local rank that failed to join.
	Rank int
	// Err is the underlying failure (possibly a VersionMismatchError).
	Err error
}

// Error returns the bootstrap failure description.
func (e *BootstrapError) Error() string {
	return fmt.Sprintf("comm: tcp bootstrap of rank %d failed: %v", e.Rank, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *BootstrapError) Unwrap() error { return e.Err }

// VersionMismatchError reports that a bootstrap peer speaks a different
// hsswire protocol version than this binary. Worlds run exactly one
// protocol version (docs/WIRE.md §Versioning); mixed-version fleets must
// refuse to connect rather than corrupt each other.
type VersionMismatchError struct {
	// Local is this binary's protocol identifier ("hsswire/N").
	Local string
	// Peer is the identifier the remote end presented.
	Peer string
}

// Error returns the mismatch description.
func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("comm: wire protocol mismatch: peer speaks %q, this binary %q", e.Peer, e.Local)
}
