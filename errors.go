package hssort

import (
	"hssort/internal/comm"
	"hssort/internal/spill"
)

// The failure-survival error taxonomy, re-exported from the transport
// layer so callers can branch on errors.As without importing internal
// packages. All three come back (wrapped) from Sort/Plan calls over the
// TCP transport.

// PeerCrashError reports that a peer rank died mid-run: its connection
// severed, its silence exceeded TCPConfig.PeerTimeout, or another rank
// reported the crash over the abort channel. Every surviving rank of
// the world observes the same PeerCrashError naming the same lost rank.
// The mesh heals when the rank respawns with TCPConfig.Rejoin — the
// same Sorter then completes the next Sort, deterministically
// re-executing the lost rank's shard.
type PeerCrashError = comm.PeerCrashError

// BootstrapError reports that an endpoint failed to join the TCP mesh,
// at bootstrap or at a rejoin (listener setup, registration, peer
// dialing, or a refused handshake), before any sort ran.
type BootstrapError = comm.BootstrapError

// VersionMismatchError reports a bootstrap handshake between processes
// speaking different wire-protocol versions (docs/WIRE.md): a mixed
// deployment that must be rebuilt, not retried.
type VersionMismatchError = comm.VersionMismatchError

// SpillError reports an out-of-core sort's spill-plane failure: a run
// file that could not be created, written or read back, or one whose
// frames failed checksum or framing validation (docs/SPILL.md). Op
// names the operation, Path the run file, and Unwrap carries the cause
// — errors.Is(err, ErrSpillCorrupt) for damaged data, I/O errors pass
// through as-is. Sorts never return garbage keys from a damaged run
// file; they return one of these.
type SpillError = spill.Error

// ErrSpillCorrupt is the sentinel wrapped by a SpillError whose cause
// is damaged spill data (checksum mismatch, framing violation, varint
// decode failure) rather than an I/O error.
var ErrSpillCorrupt = spill.ErrCorrupt
