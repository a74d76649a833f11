package hssort

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hssort/internal/comm"
)

// Transport selects the communication backend a sort runs over. The
// algorithms are transport-agnostic — they program against the runtime's
// Transport interface — so the same sort runs in accounting mode, at
// shared-memory speed, or across OS processes on real sockets by
// flipping Config.Transport.
type Transport int

const (
	// TransportSim is the in-memory message-passing runtime with full
	// byte accounting: every Stats field is populated. The default, and
	// the backend behind all paper-comparison numbers.
	TransportSim Transport = iota
	// TransportInproc is the same in-memory runtime without the
	// accounting: payloads move by reference through the same inboxes,
	// and the communication-volume fields of Stats (SplitterBytes,
	// ExchangeBytes, TotalMsgs, TotalBytes) read zero.
	TransportInproc
	// TransportTCP is the multi-process backend: each rank is its own
	// OS process and every message crosses a real socket through the
	// wire protocol of docs/WIRE.md, making the byte-volume fields of
	// Stats measured wire traffic rather than model output. With
	// Config.TCP left zero it runs as an in-process loopback mesh (p
	// ranks, real localhost sockets); with Config.TCP set it joins a
	// multi-process world — see "Distributed deployment" in
	// docs/TRANSPORTS.md.
	TransportTCP
)

// TCPConfig configures this process's endpoint of a multi-process TCP
// world (Config.Transport: TransportTCP). The zero value selects the
// in-process loopback mesh: all Procs ranks in this process, connected
// over real localhost sockets.
type TCPConfig struct {
	// Coordinator is the host:port of the rank-0 listener.
	// Rank 0 binds it; other ranks dial it to register and learn the
	// peer address table. Setting it selects worker mode: this process
	// hosts exactly the rank given by Rank, and Sorter calls drive only
	// that rank (shards/outputs of other ranks stay in their processes).
	Coordinator string
	// Rank is this process's rank in [0, Procs).
	Rank int
	// ListenAddr is the bind address of this process's data listener
	// (ranks > 0). Default "127.0.0.1:0"; use a routable interface for
	// multi-machine worlds.
	ListenAddr string
	// BootstrapTimeout bounds joining the world, registration to whole
	// mesh (default 30s).
	BootstrapTimeout time.Duration
	// HeartbeatInterval is the liveness probe period: each endpoint
	// sends an empty heartbeat frame to every quiet peer at this
	// interval. Zero defaults to PeerTimeout/3 when PeerTimeout is set,
	// else heartbeats are off.
	HeartbeatInterval time.Duration
	// PeerTimeout declares a peer crashed after this much total silence
	// (no data, no heartbeats): surviving ranks then fail the run with a
	// *PeerCrashError naming the lost rank instead of hanging. Zero (the
	// default) disables timeout-based crash detection; connection EOFs
	// are still detected.
	PeerTimeout time.Duration
	// RejoinWait makes the next sort after a peer crash block up to this
	// long for the crashed rank to respawn and rejoin (worker processes
	// restarted with Rejoin set) before giving up. Zero starts the next
	// sort immediately, failing it if the mesh is still torn.
	RejoinWait time.Duration
	// Rejoin re-enters an existing world after a crash instead of
	// bootstrapping a new one: the respawned worker process registers
	// with the coordinator as its rank's next incarnation, learns the
	// current address table and generation, and dials every peer while
	// the survivors wait (RejoinWait). Worker mode only (Coordinator must
	// be set, Rank > 0).
	Rejoin bool
}

// transportSpec is one registered backend: the single source of truth
// behind String, ParseTransport, the flag help of cmd/hssort and the
// construction switch — so a new backend cannot drift out of the
// documentation or the error messages.
type transportSpec struct {
	value   Transport
	name    string
	summary string
	build   func(cfg Config) (comm.Transport, error)
}

// transportSpecs registers every backend, in flag-help order.
var transportSpecs = []transportSpec{
	{
		value:   TransportSim,
		name:    "sim",
		summary: "in-memory runtime with modeled byte accounting (the default)",
		build: func(cfg Config) (comm.Transport, error) {
			return comm.NewSimTransport(cfg.Procs), nil
		},
	},
	{
		value:   TransportInproc,
		name:    "inproc",
		summary: "the same in-memory runtime without accounting; byte/message stats read zero",
		build: func(cfg Config) (comm.Transport, error) {
			return comm.NewInprocTransport(cfg.Procs), nil
		},
	},
	{
		value:   TransportTCP,
		name:    "tcp",
		summary: "multi-process sockets with measured wire traffic (docs/WIRE.md); loopback mesh unless Config.TCP names a coordinator",
		build: func(cfg Config) (comm.Transport, error) {
			if cfg.TCP.Coordinator == "" {
				m, err := comm.NewTCPLoopback(cfg.Procs, comm.TCPOptions{
					BootstrapTimeout:  cfg.TCP.BootstrapTimeout,
					HeartbeatInterval: cfg.TCP.HeartbeatInterval,
					PeerTimeout:       cfg.TCP.PeerTimeout,
					RejoinWait:        cfg.TCP.RejoinWait,
				})
				if err != nil {
					return nil, err
				}
				return m, nil
			}
			return comm.DialTCP(comm.TCPOptions{
				Coordinator:       cfg.TCP.Coordinator,
				Rank:              cfg.TCP.Rank,
				Procs:             cfg.Procs,
				ListenAddr:        cfg.TCP.ListenAddr,
				BootstrapTimeout:  cfg.TCP.BootstrapTimeout,
				HeartbeatInterval: cfg.TCP.HeartbeatInterval,
				PeerTimeout:       cfg.TCP.PeerTimeout,
				RejoinWait:        cfg.TCP.RejoinWait,
				Rejoin:            cfg.TCP.Rejoin,
			})
		},
	},
}

// TransportNames returns the registered backend names in flag-help
// order: the list every error message and usage string derives from.
func TransportNames() []string {
	names := make([]string, len(transportSpecs))
	for i, s := range transportSpecs {
		names[i] = s.name
	}
	return names
}

// TransportSummaries returns "name: summary" lines for the registered
// backends, for command-line usage text.
func TransportSummaries() []string {
	out := make([]string, len(transportSpecs))
	for i, s := range transportSpecs {
		out[i] = s.name + ": " + s.summary
	}
	return out
}

// spec returns the registry entry for t.
func (t Transport) spec() (transportSpec, bool) {
	for _, s := range transportSpecs {
		if s.value == t {
			return s, true
		}
	}
	return transportSpec{}, false
}

// String returns the name used by the -transport command-line flags.
func (t Transport) String() string {
	if s, ok := t.spec(); ok {
		return s.name
	}
	return fmt.Sprintf("Transport(%d)", int(t))
}

// ParseTransport parses a -transport flag value (case-insensitively).
// The set of valid values — and the error listing them — comes from the
// backend registry, so it is always in sync with the implementations.
func ParseTransport(s string) (Transport, error) {
	for _, spec := range transportSpecs {
		if strings.EqualFold(s, spec.name) {
			return spec.value, nil
		}
	}
	return 0, fmt.Errorf("hssort: unknown transport %q (valid values: %s)", s, strings.Join(TransportNames(), ", "))
}

// newTransport builds the comm backend for a run over cfg.Procs ranks,
// wrapping it in the fault-injection layer when Config.Chaos is set.
func newTransport(cfg Config) (comm.Transport, error) {
	s, ok := cfg.Transport.spec()
	if !ok {
		return nil, fmt.Errorf("hssort: unknown transport %v (valid values: %s)", cfg.Transport, strings.Join(TransportNames(), ", "))
	}
	t, err := s.build(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		spec, err := cfg.Chaos.faultSpec(cfg.Procs)
		if err != nil {
			closeTransport(t)
			return nil, err
		}
		return comm.NewFaultTransport(t, spec), nil
	}
	return t, nil
}

// closeTransport releases backends that hold OS resources (sockets,
// goroutines); the in-memory backends need no teardown.
func closeTransport(t comm.Transport) {
	if c, ok := t.(io.Closer); ok {
		c.Close()
	}
}
