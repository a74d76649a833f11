package comm

// tcp.go implements TCPTransport: the multi-process backend in which
// each rank is its own OS process and all communication crosses real
// sockets through the length-prefixed binary protocol of wire.go (spec:
// docs/WIRE.md).
//
// Topology. Ranks form a full mesh: one TCP connection per unordered
// rank pair. There is one way into it, the join: register at rank 0's
// well-known address, learn the address table, dial every rank that was
// there before. Bootstrap is the join of incarnation 0 (rank 0 holds the
// replies until all ranks registered; higher ranks dial lower ones), a
// rejoin a later incarnation's (it dials every peer). Each connection has
// one writer goroutine draining an unbounded outbound queue — so Send
// never blocks, preserving the buffered-send model the algorithms assume
// — and one reader goroutine that decodes frames and feeds the local
// rank's inbox, the same one the in-memory backend uses (mailbox.go), so
// Recv/TryRecv/RecvAny semantics are identical to it and the streaming
// exchange's credit window works unchanged.
//
// Generations. Transport.Reset — the hook the engine (comm.Pool) uses
// between sorts — is a wire-level epoch bump: every frame carries the
// sender's generation, receivers drop frames from past generations
// (stale traffic of an aborted run) and buffer frames from future
// generations until their own Reset catches up (SPMD peers may race one
// run ahead). Abort latches propagate as generation-fenced control
// frames carrying enough structure to reconstruct context cancellation
// errors on every process.
//
// Teardown. Close sends a shutdown frame and half-closes each
// connection; an EOF after a shutdown frame is graceful, an EOF without
// one aborts the transport (peer crash). Close waits for the peer's own
// shutdown up to shutdownTimeout, then force-closes, and is the hook
// behind the goroutine-leak guarantees the tests pin.
//
// Failure survival. A peer's death surfaces as a typed *PeerCrashError
// on every survivor — detected by raw EOF, or by heartbeat silence when
// PeerTimeout is set (a hung process, not just a dead socket). The
// slot conns[r] is the only liveness state: a tcpConn carries its peer's
// incarnation (0 at bootstrap, +1 per rejoin, handed out by rank 0) and,
// once retired, its *PeerCrashError, so "rank r is lost" is "slot r holds
// a retired conn". Every connection-level event (EOF, write error,
// heartbeat miss, a peer's crash report, rejoin adoption) takes the one
// retire step under genMu: bound to a conn and so to an incarnation, it
// cannot reach a healed slot or be charged to the next generation. "Conn
// up" is one event too: adopt fills a slot with an incarnation's conn,
// at bootstrap and at rejoin alike. The listener is served for the life
// of the endpoint, so a respawned worker joins the running world,
// adopting its current generation, and Reset (with RejoinWait) waits for
// the mesh to heal so the next run recovers instead of failing. An
// endpoint's lifecycle is {join, reset, crash, close}.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransportClosed is returned by operations on a TCPTransport after
// Close.
var ErrTransportClosed = errors.New("comm: transport closed")

// shutdownTimeout bounds how long Close waits for peers to finish their
// own teardown before force-closing sockets.
const shutdownTimeout = 5 * time.Second

// TCPOptions configures one process's endpoint of a TCP world. The zero
// value is not usable: Coordinator, Rank and Procs are required (the
// NewTCPLoopback helper fills them for in-process meshes).
type TCPOptions struct {
	// Coordinator is the host:port of the rank-0 listener.
	// Rank 0 binds it; every other rank dials it to register and learn
	// the peer address table.
	Coordinator string
	// Rank is this process's rank in [0, Procs).
	Rank int
	// Procs is the total number of ranks in the world.
	Procs int
	// ListenAddr is the bind address for this process's data listener
	// (ranks > 0; rank 0's data listener is the coordinator listener).
	// Default "127.0.0.1:0". Use a routable interface for multi-machine
	// worlds.
	ListenAddr string
	// CoordinatorListener optionally supplies a pre-bound listener for
	// the coordinator address (rank 0 only): the caller can bind
	// host:0, read the ephemeral port off Addr, hand it to workers and
	// pass the listener here, eliminating the bind race of launchers.
	CoordinatorListener net.Listener
	// BootstrapTimeout bounds a join, registration to whole mesh, and
	// each handshake served on the listener. Default 30s.
	BootstrapTimeout time.Duration
	// PeerTimeout declares a peer crashed when nothing — data or
	// heartbeat — has arrived from it for this long, surfacing a
	// *PeerCrashError instead of hanging until a socket error. Zero
	// disables liveness monitoring (the default): a hung-but-connected
	// peer is then indistinguishable from a slow one. Set it on every
	// rank of the world or none; a monitored rank that does not receive
	// heartbeats back will false-positive during idle periods.
	PeerTimeout time.Duration
	// HeartbeatInterval is the period of outgoing liveness probes.
	// Default PeerTimeout/3 when PeerTimeout is set (so a peer misses
	// ~3 probes before being declared dead), otherwise heartbeats are
	// off.
	HeartbeatInterval time.Duration
	// RejoinWait makes Reset wait up to this long for crashed peers to
	// rejoin the world before poisoning the next run with their
	// *PeerCrashError. Zero keeps the historical fail-fast behavior:
	// a lost peer permanently poisons the endpoint.
	RejoinWait time.Duration
	// Rejoin states that this endpoint replaces a crashed rank (same
	// Rank, same Procs) of an already-running world, whose coordinator
	// accepts no other registration: the join then adopts the world's
	// current generation and the rank's next incarnation, and dials every
	// peer. Rank 0 cannot rejoin — it hosts the coordinator.
	Rejoin bool
}

// withDefaults fills unset option fields.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.ListenAddr == "" {
		o.ListenAddr = "127.0.0.1:0"
	}
	if o.BootstrapTimeout == 0 {
		o.BootstrapTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 && o.PeerTimeout > 0 {
		o.HeartbeatInterval = max(o.PeerTimeout/3, time.Millisecond)
	}
	return o
}

// tcpConn is one established rank-pair connection.
type tcpConn struct {
	peer int
	inc  uint32 // the peer's incarnation this socket reaches
	c    net.Conn
	bw   *bufio.Writer

	// retired is the conn's crash record: nil while the peer is
	// reachable through this socket, afterwards the *PeerCrashError it
	// was retired with. TCPTransport.retire is its only writer.
	retired atomic.Pointer[PeerCrashError]
	// lastRecv is the UnixNano timestamp of the last inbound frame
	// (data, control or heartbeat) — the liveness monitor's evidence.
	lastRecv atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	outq     [][]byte // encoded frames awaiting the writer
	closing  bool     // local Close started: writer drains, then half-closes
	peerDone bool     // peer's shutdown frame arrived

	// pending buffers whole frames from future generations (peer raced
	// ahead to its next run); the owning transport re-delivers them
	// when Reset advances the local generation. Guarded by the
	// transport's genMu, not conn.mu.
	pending []pendingFrame
}

// pendingFrame is a future-generation frame awaiting Reset.
type pendingFrame struct {
	h    frameHeader
	msg  Message // valid for frameData
	ctrl []byte  // control payload (abort frames) for non-data kinds
}

// enqueue appends an encoded frame for the writer goroutine.
func (pc *tcpConn) enqueue(frame []byte) {
	pc.mu.Lock()
	pc.outq = append(pc.outq, frame)
	pc.cond.Signal()
	pc.mu.Unlock()
}

// TCPTransport is one process's endpoint of a multi-process world: the
// third Transport backend, in which every rank runs in its own OS
// process and messages cross real TCP sockets (docs/WIRE.md).
//
// A TCPTransport hosts exactly one local rank. Send accepts only the
// local rank as src and Recv/TryRecv only the local rank as dst — World
// and Pool detect this through the RankHoster interface and drive just
// the hosted rank, so the same SPMD code runs unchanged with p
// processes instead of p goroutines. For an in-process world over real
// sockets (tests, single-machine benchmarks), see NewTCPLoopback.
//
// Unlike NewSimTransport's modeled byte accounting, Counters here report
// measured wire traffic: every frame charges its actual encoded size,
// header included.
type TCPTransport struct {
	p    int
	me   int
	opts TCPOptions

	// conns holds the connection per peer rank (nil at me); a slot
	// holding a retired conn is a lost rank. Unlike the abort latch —
	// which Reset clears so an engine can reuse the mesh after a
	// cancellation — a retired conn stays until a rejoin replaces it
	// (Reset waits for that, or re-poisons the next run). Slots are
	// atomic pointers: the rejoin swap races Send and the monitor.
	conns []atomic.Pointer[tcpConn]
	box   *inbox // the hosted rank's receive queue

	// ln is the endpoint's listener, served by acceptLoop from DialTCP to
	// Close: every handshake, the bootstrap's and a rejoin's, arrives on it.
	ln net.Listener

	// table is the live rank → data-address map, incs the rank →
	// incarnation vector and held the registrations awaiting their reply
	// (rank 0 only). held is non-nil exactly while the world bootstraps;
	// afterwards each registration updates the table and bumps the
	// joiner's incarnation, so a respawned worker always learns the
	// current mesh.
	tableMu sync.Mutex
	table   []string
	incs    []uint32
	held    []net.Conn

	// missing counts the empty slots and joined carries the join's
	// outcome: nil once missing reaches 0, or the refusal that failed a
	// bootstrapping coordinator. up is set when the join returns; adopt
	// starts the pumps of later conns at once. Guarded by genMu.
	missing int
	joined  chan error
	up      bool

	counters struct {
		mu sync.Mutex
		c  Counters
	}

	gen atomic.Uint32 // current generation (epoch)
	// genMu serializes what depends on the current generation: Reset,
	// frame dispatch, Abort and the retire step.
	genMu  sync.Mutex
	abort  abortLatch
	closed atomic.Bool

	// hbSuspend pauses outgoing heartbeats (test hook: a suspended
	// endpoint looks hung to its peers without closing any socket).
	hbSuspend atomic.Bool

	stop chan struct{}  // closed on Close/Kill: stops monitor
	wg   sync.WaitGroup // reader/writer pumps, acceptLoop, monitor
}

var (
	_ Transport  = (*TCPTransport)(nil)
	_ RankHoster = (*TCPTransport)(nil)
	_ io.Closer  = (*TCPTransport)(nil)
)

// DialTCP joins this process's endpoint to a TCP world and blocks until
// its mesh is whole, one conn per peer. Without Rejoin the endpoint is
// incarnation 0 of a world still forming, with Rejoin it replaces a
// crashed rank of a running one; either way the listener then serves
// later joins for the life of the endpoint. Every setup failure is
// returned as a *BootstrapError.
func DialTCP(opts TCPOptions) (*TCPTransport, error) {
	opts = opts.withDefaults()
	if opts.Procs < 1 {
		panicSize(opts.Procs)
	}
	if opts.Rank < 0 || opts.Rank >= opts.Procs {
		return nil, &BootstrapError{Rank: opts.Rank, Err: fmt.Errorf("rank outside [0, %d)", opts.Procs)}
	}
	if opts.Coordinator == "" && opts.CoordinatorListener == nil {
		return nil, &BootstrapError{Rank: opts.Rank, Err: errors.New("bootstrap needs a coordinator address")}
	}
	if opts.Rank == 0 && opts.Rejoin {
		return nil, &BootstrapError{Rank: 0, Err: errors.New("rank 0 hosts the coordinator and cannot rejoin; restart the world")}
	}
	t := &TCPTransport{p: opts.Procs, me: opts.Rank, opts: opts}
	t.box = newInbox(opts.Procs, t.recvErr)
	t.conns = make([]atomic.Pointer[tcpConn], opts.Procs)
	t.stop = make(chan struct{})
	t.gen.Store(1) // generation 0 is never used: frames always carry ≥ 1
	t.joined = make(chan error, 1)
	if t.missing = opts.Procs - 1; t.missing == 0 {
		t.endJoin(nil)
	}
	if err := t.join(); err != nil {
		t.Kill()
		return nil, &BootstrapError{Rank: opts.Rank, Err: err}
	}
	if t.opts.HeartbeatInterval > 0 {
		t.wg.Add(1)
		go t.monitor()
	}
	return t, nil
}

// LocalRanks reports the single rank this process hosts (RankHoster).
func (t *TCPTransport) LocalRanks() []int { return []int{t.me} }

// Size returns the total number of ranks in the world.
func (t *TCPTransport) Size() int { return t.p }

// Rank returns the local rank this endpoint hosts.
func (t *TCPTransport) Rank() int { return t.me }

// ---------------------------------------------------------------------
// Joining
// ---------------------------------------------------------------------

// bootMsg is the JSON control message of a handshake (wire protocol
// spec: docs/WIRE.md §Joining). Every message is prefixed with a uint32
// length.
type bootMsg struct {
	// Proto pins the wire-protocol version: "hsswire/<N>".
	Proto string `json:"proto"`
	// Type is "register", "table", "data", "ok" or "error".
	Type string `json:"type"`
	// Rank, Procs, Addr and Rejoin describe the registering worker.
	Rank   int    `json:"rank,omitempty"`
	Procs  int    `json:"procs,omitempty"`
	Addr   string `json:"addr,omitempty"`
	Rejoin bool   `json:"rejoin,omitempty"`
	// Src and Dst identify a data connection's rank pair, and Inc the
	// dialer's incarnation.
	Src int    `json:"src,omitempty"`
	Dst int    `json:"dst,omitempty"`
	Inc uint32 `json:"inc,omitempty"`
	// Addrs, Gen and Incs are the table reply: the rank → address table,
	// the world's current generation (the joiner re-enters the epoch
	// lockstep at it) and the rank → incarnation vector.
	Addrs []string `json:"addrs,omitempty"`
	Gen   uint32   `json:"gen,omitempty"`
	Incs  []uint32 `json:"incs,omitempty"`
	// Err carries a refusal ("error" messages).
	Err string `json:"err,omitempty"`
}

// protoID is the version string every handshake message must carry.
var protoID = fmt.Sprintf("hsswire/%d", wireProtoVersion)

// writeBootMsg sends one length-prefixed JSON handshake message.
func writeBootMsg(c net.Conn, m bootMsg) error {
	m.Proto = protoID
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(b)))
	if _, err := c.Write(lenb[:]); err != nil {
		return err
	}
	_, err = c.Write(b)
	return err
}

// readBootMsg reads one length-prefixed JSON handshake message and
// validates its protocol version.
func readBootMsg(c net.Conn) (bootMsg, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(c, lenb[:]); err != nil {
		return bootMsg{}, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n > 1<<20 {
		return bootMsg{}, fmt.Errorf("comm: bootstrap message of %d bytes (corrupt or wrong peer)", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c, b); err != nil {
		return bootMsg{}, err
	}
	var m bootMsg
	if err := json.Unmarshal(b, &m); err != nil {
		return bootMsg{}, fmt.Errorf("comm: bootstrap message: %w", err)
	}
	if m.Proto != protoID {
		return bootMsg{}, &VersionMismatchError{Local: protoID, Peer: m.Proto}
	}
	if m.Type == "error" {
		return bootMsg{}, fmt.Errorf("comm: bootstrap rejected: %s", m.Err)
	}
	return m, nil
}

// bind opens the endpoint's listener — the coordinator address for rank
// 0 (or the pre-bound CoordinatorListener), an ephemeral data port for
// the rest — and gives rank 0 the world's live table, bootstrapping.
func (t *TCPTransport) bind() error {
	addr := t.opts.ListenAddr
	if t.me == 0 {
		addr, t.ln = t.opts.Coordinator, t.opts.CoordinatorListener
	}
	if t.ln == nil {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("comm: tcp listen %s: %w", addr, err)
		}
		t.ln = ln
	}
	if t.me != 0 {
		return nil
	}
	t.table = make([]string, t.p)
	t.table[0] = t.ln.Addr().String()
	t.incs = make([]uint32, t.p)
	if t.p > 1 {
		t.held = make([]net.Conn, t.p)
	}
	return nil
}

// join is the one way into the mesh; bootstrap is the join of
// incarnation 0. It binds the listener and serves it from then on. A
// rank other than 0 registers at the coordinator, adopts the generation
// and incarnations of the table reply and dials every rank that was
// there before it — the lower ranks at incarnation 0, every peer
// otherwise. The other slots fill as their ranks dial in through
// acceptLoop; rank 0, which serves the registrations, only waits.
func (t *TCPTransport) join() error {
	if err := t.bind(); err != nil {
		return err
	}
	t.wg.Add(1)
	go t.acceptLoop()
	deadline := time.Now().Add(t.opts.BootstrapTimeout)
	if t.me == 0 {
		return t.awaitMesh(deadline)
	}
	// The coordinator may not be up yet (workers often launch before or
	// alongside rank 0), so failed dials retry with jittered exponential
	// backoff until the deadline.
	c, retries, err := dialRetry(t.opts.Coordinator, t.me, deadline)
	if err != nil {
		return fmt.Errorf("comm: tcp rank %d dialing coordinator %s: %w", t.me, t.opts.Coordinator, err)
	}
	defer c.Close()
	c.SetDeadline(deadline)
	if err := writeBootMsg(c, bootMsg{Type: "register", Rank: t.me, Procs: t.p, Addr: t.ln.Addr().String(), Rejoin: t.opts.Rejoin}); err != nil {
		return fmt.Errorf("comm: tcp rank %d registering: %w", t.me, err)
	}
	m, err := readBootMsg(c)
	if err != nil {
		return fmt.Errorf("comm: tcp rank %d awaiting address table: %w", t.me, err)
	}
	if m.Type != "table" || len(m.Addrs) != t.p || len(m.Incs) != t.p || m.Gen == 0 {
		return fmt.Errorf("comm: tcp rank %d: malformed address table (%q, %d addrs, %d incs, gen %d)", t.me, m.Type, len(m.Addrs), len(m.Incs), m.Gen)
	}
	// Adopt the world's epoch: at a rejoin the survivors are parked at
	// m.Gen (their Reset waits for the mesh to heal before bumping), so
	// the lockstep resumes as if this process had been there all along.
	t.gen.Store(m.Gen)
	inc := m.Incs[t.me]
	var wg sync.WaitGroup
	errs := make([]error, t.p)
	dials := make([]int64, t.p)
	for j := range t.p {
		if j == t.me || inc == 0 && j > t.me {
			continue // j joins after this rank and dials in itself
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dials[j], errs[j] = t.dial(j, m.Addrs[j], inc, m.Incs[j], deadline)
		}()
	}
	wg.Wait()
	t.counters.mu.Lock()
	for _, r := range dials {
		retries += r
	}
	t.counters.c.Reconnects += retries
	if inc > 0 {
		t.counters.c.Respawns++
	}
	t.counters.mu.Unlock()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return t.awaitMesh(deadline)
}

// dial opens this rank's conn to incarnation peerInc of rank j: a data
// handshake presenting this endpoint's incarnation inc, acked once j
// has adopted it. It returns the dial retries.
func (t *TCPTransport) dial(j int, addr string, inc, peerInc uint32, deadline time.Time) (int64, error) {
	c, retries, err := dialRetry(addr, t.me, deadline)
	if err != nil {
		return retries, fmt.Errorf("comm: tcp rank %d dialing rank %d at %s: %w", t.me, j, addr, err)
	}
	c.SetDeadline(deadline)
	if err = writeBootMsg(c, bootMsg{Type: "data", Src: t.me, Dst: j, Inc: inc}); err == nil {
		if _, err = readBootMsg(c); err == nil {
			err = t.adopt(j, peerInc, c, false)
		}
	}
	if err != nil {
		c.Close()
		return retries, fmt.Errorf("comm: tcp rank %d data handshake with rank %d: %w", t.me, j, err)
	}
	return retries, nil
}

// awaitMesh blocks until every slot holds a conn, then marks the mesh up
// and starts the pumps: no frame is read before DialTCP returns, and
// from now on adopt starts the pumps of each conn it adopts.
func (t *TCPTransport) awaitMesh(deadline time.Time) error {
	select {
	case err := <-t.joined:
		if err != nil {
			return err
		}
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("comm: tcp rank %d: mesh incomplete at the bootstrap deadline (%v)", t.me, t.opts.BootstrapTimeout)
	}
	t.genMu.Lock()
	defer t.genMu.Unlock()
	t.up = true
	for r := range t.conns {
		if pc := t.conns[r].Load(); pc != nil {
			t.startPumps(pc)
		}
	}
	return nil
}

// endJoin hands awaitMesh the join's outcome; the first one counts.
func (t *TCPTransport) endJoin(err error) {
	select {
	case t.joined <- err:
	default:
	}
}

// acceptLoop serves every handshake on the endpoint's listener, from
// DialTCP to Close: registrations at the coordinator and data
// handshakes at every rank, before and after the mesh is up. Handshakes
// are served serially — one message, one reply — with a deadline so a
// stuck dialer cannot wedge the loop.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // closed or broken: the endpoint stops accepting
		}
		c.SetDeadline(time.Now().Add(t.opts.BootstrapTimeout))
		m, err := readBootMsg(c)
		switch {
		case err != nil:
		case m.Type == "register":
			err = t.register(c, m)
		case m.Type != "data":
			err = fmt.Errorf("unexpected %q handshake", m.Type)
		case m.Dst != t.me || m.Src == t.me || uint(m.Src) >= uint(t.p):
			err = fmt.Errorf("bad data pair (%d,%d) at rank %d", m.Src, m.Dst, t.me)
		default:
			err = t.adopt(m.Src, m.Inc, c, true)
		}
		if err != nil {
			t.refuse(c, err)
		}
	}
}

// refuse turns a handshake away, telling the dialer why. At the
// coordinator of a world still bootstrapping it also fails the
// coordinator's own join: the world it was forming cannot complete.
func (t *TCPTransport) refuse(c net.Conn, reason error) {
	writeBootMsg(c, bootMsg{Type: "error", Err: reason.Error()})
	c.Close()
	t.tableMu.Lock()
	defer t.tableMu.Unlock()
	if t.held != nil {
		t.endJoin(fmt.Errorf("comm: tcp bootstrap refused a handshake: %w", reason))
	}
}

// register serves one registration at the coordinator. While the world
// bootstraps it holds every reply until all p−1 ranks have registered,
// then answers them all (generation 1, every incarnation 0); afterwards
// it answers a joiner that states rejoin intent at once, with the
// current generation and the joiner's next incarnation. The error
// refuses the registration.
func (t *TCPTransport) register(c net.Conn, m bootMsg) error {
	t.tableMu.Lock()
	defer t.tableMu.Unlock()
	booting := t.held != nil
	switch {
	case t.me != 0:
		return errors.New("registration must go to the coordinator (rank 0)")
	case m.Procs != t.p:
		return fmt.Errorf("world size mismatch: coordinator has %d ranks, worker expects %d", t.p, m.Procs)
	case m.Rank < 1 || m.Rank >= t.p || booting && t.held[m.Rank] != nil:
		return fmt.Errorf("invalid or duplicate rank %d", m.Rank)
	case !booting && !m.Rejoin:
		return errors.New("world already bootstrapped")
	}
	t.table[m.Rank] = m.Addr
	reply := []net.Conn{c}
	if booting {
		if t.held[m.Rank] = c; slices.Contains(t.held[1:], nil) {
			return nil
		}
		reply, t.held = t.held[1:], nil
	} else {
		t.incs[m.Rank]++
	}
	// A failed reply is a joiner that died: the mesh goes on missing it.
	for _, c := range reply {
		writeBootMsg(c, bootMsg{Type: "table", Addrs: t.table, Gen: t.gen.Load(), Incs: t.incs})
		c.Close()
	}
	return nil
}

// adopt is the one place a slot receives a conn. Under genMu it fills
// peer's slot with incarnation inc over c when the slot is empty or
// holds an older incarnation, retiring that one, and refuses an
// incarnation the slot already holds or has outlived. An inbound
// handshake is acked only after the slot is filled, so a joiner whose
// dial returns knows no survivor still counts it as lost; the socket
// speaks JSON until the ack, so the pumps start behind it — here once
// the mesh is up, in awaitMesh before.
func (t *TCPTransport) adopt(peer int, inc uint32, c net.Conn, inbound bool) error {
	t.genMu.Lock()
	defer t.genMu.Unlock()
	if t.closed.Load() {
		return ErrTransportClosed
	}
	old := t.conns[peer].Load()
	switch {
	case old == nil:
		if t.missing--; t.missing == 0 {
			t.endJoin(nil)
		}
	case inc <= old.inc:
		return fmt.Errorf("rank %d already holds incarnation %d of rank %d, refusing %d", t.me, old.inc, peer, inc)
	default:
		// Usually already retired (that is why the peer rejoined); if the
		// crash went unnoticed here, the new incarnation is the evidence.
		t.retire(old, fmt.Errorf("replaced by incarnation %d", inc))
		t.counters.mu.Lock()
		t.counters.c.Respawns++
		t.counters.mu.Unlock()
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &tcpConn{peer: peer, inc: inc, c: c, bw: bufio.NewWriterSize(c, 1<<16)}
	pc.cond = sync.NewCond(&pc.mu)
	t.conns[peer].Store(pc)
	if inbound {
		// A failed ack is a joiner that died again: pc's reader finds out.
		writeBootMsg(c, bootMsg{Type: "ok"})
	}
	c.SetDeadline(time.Time{}) // the mesh conn lives unbounded
	if t.up {
		t.startPumps(pc)
	}
	return nil
}

// startPumps starts pc's reader and writer; the caller holds genMu.
func (t *TCPTransport) startPumps(pc *tcpConn) {
	pc.lastRecv.Store(time.Now().UnixNano())
	t.wg.Add(2)
	go t.readLoop(pc)
	go t.writeLoop(pc)
}

// ---------------------------------------------------------------------
// Liveness (heartbeats)
// ---------------------------------------------------------------------

// monitor emits heartbeat frames on every live connection each
// HeartbeatInterval and — when PeerTimeout is set — declares peers that
// have been silent past the timeout crashed. Heartbeats make a *hung*
// process (deadlocked, stopped, partitioned) detectable; a merely slow
// peer keeps its connection alive at zero protocol cost because
// heartbeats never enter the mailbox.
func (t *TCPTransport) monitor() {
	defer t.wg.Done()
	tick := time.NewTicker(t.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		if t.hbSuspend.Load() {
			continue
		}
		now := time.Now()
		gen := t.gen.Load()
		for r := range t.conns {
			pc := t.conns[r].Load()
			if pc == nil || pc.retired.Load() != nil {
				continue
			}
			pc.mu.Lock()
			quiet := pc.peerDone || pc.closing
			pc.mu.Unlock()
			if quiet {
				continue
			}
			if pt := t.opts.PeerTimeout; pt > 0 {
				silent := now.Sub(time.Unix(0, pc.lastRecv.Load()))
				if silent > pt {
					t.peerLost(pc, fmt.Errorf("no traffic for %v (peer timeout %v)", silent.Round(time.Millisecond), pt))
					continue
				}
			}
			frame := make([]byte, frameHeaderLen)
			putFrameHeader(frame, frameHeader{
				kind: frameHeartbeat,
				src:  uint32(t.me),
				dst:  uint32(pc.peer),
				gen:  gen,
			})
			pc.enqueue(frame)
		}
	}
}

// SuspendHeartbeats pauses (or resumes) this endpoint's outgoing
// heartbeats without touching any socket — to an idle peer the process
// looks hung, exactly like a deadlocked rank. Test hook for the
// liveness monitor.
func (t *TCPTransport) SuspendHeartbeats(suspend bool) {
	t.hbSuspend.Store(suspend)
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

// Send encodes the payload into a data frame and hands it to the
// destination's connection writer (or loops it back through the codec
// for a self-send). It never blocks on the network. src must be the
// locally hosted rank.
func (t *TCPTransport) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	if err := t.abort.get(); err != nil {
		return err
	}
	if t.closed.Load() {
		return ErrTransportClosed
	}
	if src != t.me {
		return fmt.Errorf("comm: tcp endpoint hosts rank %d, cannot send as rank %d", t.me, src)
	}
	gen := t.gen.Load()
	frame := make([]byte, frameHeaderLen, frameHeaderLen+wirePayloadSize(payload))
	frame, err := appendWirePayload(frame, payload)
	if err != nil {
		return fmt.Errorf("comm: tcp send to rank %d tag %d: %w", dst, tag, err)
	}
	putFrameHeader(frame, frameHeader{
		kind: frameData,
		src:  uint32(src),
		dst:  uint32(dst),
		tag:  uint32(tag),
		gen:  gen,
		len:  uint64(len(frame) - frameHeaderLen),
	})
	t.counters.mu.Lock()
	t.counters.c.MsgsSent++
	t.counters.c.BytesSent += int64(len(frame))
	t.counters.mu.Unlock()
	if dst == t.me {
		// Self-send: park the encoded bytes like remote traffic —
		// uniform copy semantics and one decode path at consumption.
		raw := make(rawWire, len(frame)-frameHeaderLen)
		copy(raw, frame[frameHeaderLen:])
		t.box.put(Message{Src: src, Tag: tag, Payload: raw, Bytes: int64(len(frame))})
		return nil
	}
	pc, err := t.live(dst)
	if err != nil {
		return err
	}
	pc.enqueue(frame)
	return nil
}

// live returns dst's connection, or the crash it was retired with (the
// peer crashed between the caller's abort check and here, or has not
// rejoined yet) rather than letting the caller queue into the void.
func (t *TCPTransport) live(dst int) (*tcpConn, error) {
	pc := t.conns[dst].Load()
	if crash := pc.retired.Load(); crash != nil {
		if err := t.abort.get(); err != nil {
			return nil, err
		}
		return nil, crash
	}
	return pc, nil
}

// rawWire is an undecoded data payload parked in the inbox. Frames
// decode at consumption time, not on the reader goroutine: a frame can
// arrive before the receiving rank reaches the protocol step that
// registers its payload type (readers run arbitrarily far ahead of the
// rank), whereas by the time a Recv matches the frame, the matching
// protocol function has executed its RegisterWire.
type rawWire []byte

// decodeParked decodes a parked payload in place; in-memory transports
// never produce rawWire, so this is tcp-only.
func decodeParked(m *Message) error {
	raw, ok := m.Payload.(rawWire)
	if !ok {
		return nil
	}
	p, err := decodeWirePayload(raw)
	if err != nil {
		return err
	}
	m.Payload = p
	return nil
}

// recvErr is the inbox's stop condition: the abort latch, then Close.
func (t *TCPTransport) recvErr() error {
	if err := t.abort.get(); err != nil {
		return err
	}
	if t.closed.Load() {
		return ErrTransportClosed
	}
	return nil
}

// Recv blocks until a message matching (src, tag) is in the local
// inbox. dst must be the locally hosted rank.
func (t *TCPTransport) Recv(dst, src int, tag Tag) (Message, error) {
	if dst != t.me {
		return Message{}, fmt.Errorf("comm: tcp endpoint hosts rank %d, cannot receive as rank %d", t.me, dst)
	}
	m, err := t.box.recv(src, tag)
	if err != nil {
		return Message{}, err
	}
	return t.chargeRecv(m)
}

// TryRecv returns a matching buffered message without blocking.
func (t *TCPTransport) TryRecv(dst, src int, tag Tag) (Message, bool, error) {
	if dst != t.me {
		return Message{}, false, fmt.Errorf("comm: tcp endpoint hosts rank %d, cannot receive as rank %d", t.me, dst)
	}
	m, ok, err := t.box.tryRecv(src, tag)
	if !ok {
		return Message{}, false, err
	}
	m, err = t.chargeRecv(m)
	return m, err == nil, err
}

// chargeRecv decodes a message taken from the inbox and accounts it.
func (t *TCPTransport) chargeRecv(m Message) (Message, error) {
	if err := decodeParked(&m); err != nil {
		return Message{}, fmt.Errorf("comm: tcp recv from rank %d tag %d: %w", m.Src, m.Tag, err)
	}
	t.counters.mu.Lock()
	t.counters.c.MsgsRecv++
	t.counters.c.BytesRecv += m.Bytes
	t.counters.mu.Unlock()
	return m, nil
}

// writeLoop drains one connection's outbound queue, flushing whenever
// the queue runs dry. On Close it writes the remaining frames and
// half-closes the socket so the peer sees a clean EOF after the
// shutdown frame.
func (t *TCPTransport) writeLoop(pc *tcpConn) {
	defer t.wg.Done()
	for {
		pc.mu.Lock()
		for len(pc.outq) == 0 && !pc.closing {
			pc.cond.Wait()
		}
		batch := pc.outq
		pc.outq = nil
		closing := pc.closing
		pc.mu.Unlock()
		for _, frame := range batch {
			if _, err := pc.bw.Write(frame); err != nil {
				t.peerLost(pc, err)
				return
			}
		}
		if err := pc.bw.Flush(); err != nil {
			t.peerLost(pc, err)
			return
		}
		if closing {
			pc.mu.Lock()
			done := len(pc.outq) == 0
			pc.mu.Unlock()
			if done {
				if tc, ok := pc.c.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
				return
			}
		}
	}
}

// peerLost is the retire step of an event this endpoint observed itself
// on pc (EOF, write error, heartbeat miss). During teardown broken
// sockets are expected; otherwise the world must not hang on the peer.
func (t *TCPTransport) peerLost(pc *tcpConn, err error) {
	if t.closed.Load() {
		return
	}
	t.genMu.Lock()
	t.retire(pc, fmt.Errorf("rank %d lost contact: %w", t.me, err))
	t.genMu.Unlock()
}

// retire is the one step every connection-level event takes, exactly
// once per conn: record the crash on the conn (marking its rank lost
// until a rejoin replaces the slot), close the socket (kicking the
// reader out of its blocking read) and wake the writer so both pumps
// exit, and abort the world with a *PeerCrashError every rank can act
// on. Callers hold genMu: record, latch and the broadcast's generation
// stamp are one decision, so an event that loses the race against a
// rejoin or a Reset finds pc retired and does nothing.
func (t *TCPTransport) retire(pc *tcpConn, evidence error) {
	if pc.retired.Load() != nil {
		return
	}
	crash := &PeerCrashError{Rank: pc.peer, Incarnation: pc.inc, Err: evidence}
	pc.retired.Store(crash)
	pc.c.Close()
	pc.mu.Lock()
	pc.closing = true
	pc.cond.Broadcast()
	pc.mu.Unlock()
	t.abortLocked(crash)
}

// lost returns the crash record of a peer that has not rejoined (the
// lowest such rank's), or nil when the mesh is whole.
func (t *TCPTransport) lost() *PeerCrashError {
	for r := range t.conns {
		if pc := t.conns[r].Load(); pc != nil && pc.retired.Load() != nil {
			return pc.retired.Load()
		}
	}
	return nil
}

// readLoop decodes frames from one peer and dispatches them under the
// generation fence.
func (t *TCPTransport) readLoop(pc *tcpConn) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(pc.c, 1<<16)
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.readEnded(pc, err)
			return
		}
		h := parseFrameHeader(hdr[:])
		if h.len > 1<<40 {
			t.readEnded(pc, fmt.Errorf("frame of %d bytes (corrupt stream)", h.len))
			return
		}
		payload := make([]byte, h.len)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.readEnded(pc, err)
			return
		}
		pc.lastRecv.Store(time.Now().UnixNano())
		if h.kind == frameHeartbeat {
			// Liveness probes prove the process is alive; they carry no
			// run state and are exempt from the generation fence.
			continue
		}
		if h.kind == frameShutdown {
			pc.mu.Lock()
			pc.peerDone = true
			pc.mu.Unlock()
			continue
		}
		if err := t.dispatchFrame(pc, h, payload); err != nil {
			t.readEnded(pc, err)
			return
		}
	}
}

// readEnded classifies the end of an inbound stream: EOF after the
// peer's shutdown frame (or during our own Close) is graceful teardown,
// anything else aborts the world.
func (t *TCPTransport) readEnded(pc *tcpConn, err error) {
	pc.mu.Lock()
	peerDone := pc.peerDone
	pc.mu.Unlock()
	if !peerDone {
		t.peerLost(pc, err)
	}
}

// dispatchFrame routes one inbound frame under the generation fence:
// current-generation frames are delivered, past generations dropped
// (stale traffic of a finished or aborted run), future generations
// buffered until the local Reset catches up.
func (t *TCPTransport) dispatchFrame(pc *tcpConn, h frameHeader, payload []byte) error {
	if int(h.src) != pc.peer || int(h.dst) != t.me {
		return fmt.Errorf("frame claims pair (%d,%d) on the (%d,%d) connection", h.src, h.dst, pc.peer, t.me)
	}
	var m Message
	if h.kind == frameData {
		m = Message{Src: int(h.src), Tag: Tag(h.tag), Payload: rawWire(payload), Bytes: int64(frameHeaderLen) + int64(h.len)}
	}
	// The fence decision and the frame's effect happen under one lock:
	// otherwise a Reset could slip between them and a stale frame would
	// land in the new generation's clean mailbox.
	t.genMu.Lock()
	defer t.genMu.Unlock()
	cur := t.gen.Load()
	switch {
	case h.gen == cur:
		t.applyFrame(h, m, payload)
	case h.gen > cur:
		pf := pendingFrame{h: h, msg: m}
		if h.kind != frameData {
			pf.ctrl = payload // an abort's JSON body must survive the wait
		}
		pc.pending = append(pc.pending, pf)
	default:
		// Stale generation: traffic of a finished or aborted run; drop.
	}
	return nil
}

// applyFrame performs a current-generation frame's effect.
func (t *TCPTransport) applyFrame(h frameHeader, m Message, payload []byte) {
	switch h.kind {
	case frameData:
		t.box.put(m)
	case frameAbort:
		var wa wireAbort
		if err := json.Unmarshal(payload, &wa); err != nil {
			wa.Msg = fmt.Sprintf("undecodable abort frame: %v", err)
		}
		aerr := remoteAbortError(int(h.src), wa)
		if crash, ok := aerr.(*PeerCrashError); ok && crash.Rank != t.me && uint(crash.Rank) < uint(t.p) {
			// A remotely reported crash counts as a lost peer here too,
			// even if the local socket to it still looks healthy (hung
			// peer detected by someone else's timeout): Reset must not
			// clear the world's poison before the rank rejoins. But only
			// the incarnation the reporter lost: this slot may already
			// hold the successor.
			if pc := t.conns[crash.Rank].Load(); pc.inc == crash.Incarnation {
				t.retire(pc, crash.Err)
			}
		}
		t.abort.set(aerr)
		t.box.wake()
	}
}

// remoteAbortError reconstructs an abort error received off the wire,
// preserving the errors.Is identities that matter to callers: ErrAborted
// always, and the context sentinels when the originating process aborted
// for cancellation — that is what lets every worker process of a
// cancelled sort return its own ctx.Err().
func remoteAbortError(src int, wa wireAbort) error {
	switch {
	case wa.Crash:
		return &PeerCrashError{Rank: wa.CrashRank, Incarnation: wa.CrashInc, Err: fmt.Errorf("reported by rank %d: %s", src, wa.Msg)}
	case wa.Canceled:
		return fmt.Errorf("%w: %w: remote abort from rank %d: %s", ErrAborted, context.Canceled, src, wa.Msg)
	case wa.Deadline:
		return fmt.Errorf("%w: %w: remote abort from rank %d: %s", ErrAborted, context.DeadlineExceeded, src, wa.Msg)
	default:
		return fmt.Errorf("%w: remote abort from rank %d: %s", ErrAborted, src, wa.Msg)
	}
}

// ---------------------------------------------------------------------
// Abort / Reset / lifecycle
// ---------------------------------------------------------------------

// Abort latches err locally, unblocks every local waiter and broadcasts
// a generation-fenced abort frame to every peer, so all processes of
// the world observe the failure instead of hanging. Cancellation
// structure (context.Canceled / DeadlineExceeded) survives the wire.
func (t *TCPTransport) Abort(err error) {
	t.genMu.Lock()
	t.abortLocked(err)
	t.genMu.Unlock()
}

// abortLocked is Abort for callers holding genMu: the latch and the
// frames' generation stamp cannot straddle a Reset.
func (t *TCPTransport) abortLocked(err error) {
	t.abort.set(err)
	latched := t.abort.get()
	wa := wireAbort{
		Msg:      latched.Error(),
		Canceled: errors.Is(latched, context.Canceled),
		Deadline: errors.Is(latched, context.DeadlineExceeded),
	}
	// A crash abort carries the crashed rank and incarnation, so every
	// survivor reconstructs the same typed error whoever detected the
	// death, and retires exactly the conn the reporter lost.
	var crash *PeerCrashError
	if errors.As(latched, &crash) {
		wa.Crash = true
		wa.CrashRank = crash.Rank
		wa.CrashInc = crash.Incarnation
	}
	payload, jerr := json.Marshal(wa)
	if jerr != nil {
		payload = []byte("{}")
	}
	gen := t.gen.Load()
	for r := range t.conns {
		pc := t.conns[r].Load()
		if pc == nil || pc.retired.Load() != nil {
			continue
		}
		frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
		frame = append(frame, payload...)
		putFrameHeader(frame, frameHeader{
			kind: frameAbort,
			src:  uint32(t.me),
			dst:  uint32(pc.peer),
			gen:  gen,
			len:  uint64(len(payload)),
		})
		pc.enqueue(frame)
	}
	t.box.wake()
}

// Err returns the abort error, or nil while the transport is live.
func (t *TCPTransport) Err() error { return t.abort.get() }

// Reset advances the transport to the next generation: the epoch bump
// that lets a long-lived engine reuse one mesh across sorts. Queued
// messages of the old generation are discarded, the abort latch clears,
// traffic counters zero (the lifecycle counters, Reconnects and
// Respawns, describe the mesh and survive) — and frames a faster peer
// already sent for the new generation are delivered out of the pending
// buffers. If a peer crashed, Reset first waits up to RejoinWait for it
// to rejoin (healing the mesh before the next run); peers still lost
// after the wait re-poison the transport so the run fails fast with
// their *PeerCrashError instead of wedging against a dead socket until
// the watchdog fires. Only call while the hosted rank is not running
// (Pool.Run does this between runs); peers Reset their own endpoints in
// the same lockstep.
func (t *TCPTransport) Reset() {
	t.awaitRejoin()
	t.genMu.Lock()
	next := t.gen.Load() + 1
	t.box.reset()
	t.abort.reset()
	if crash := t.lost(); crash != nil {
		// Local only: the rank that trips over it fails the world (runRank).
		t.abort.set(crash)
	}
	t.counters.mu.Lock()
	t.counters.c = Counters{Reconnects: t.counters.c.Reconnects, Respawns: t.counters.c.Respawns}
	t.counters.mu.Unlock()
	t.gen.Store(next)
	// Deliver frames peers raced ahead with; drop ones that somehow
	// still precede the new generation.
	for r := range t.conns {
		pc := t.conns[r].Load()
		if pc == nil {
			continue
		}
		var keep []pendingFrame
		for _, pf := range pc.pending {
			switch {
			case pf.h.gen == next:
				t.applyFrame(pf.h, pf.msg, pf.ctrl)
			case pf.h.gen > next:
				keep = append(keep, pf)
			}
		}
		pc.pending = keep
	}
	t.genMu.Unlock()
}

// awaitRejoin blocks until every crashed peer has rejoined, up to
// RejoinWait. It runs before Reset takes the generation lock and before
// the epoch bump: a joiner adopts the coordinator's pre-bump generation
// and then performs its own Reset, so everyone enters the next run in
// lockstep (the pending-frame buffers absorb any residual staggering).
func (t *TCPTransport) awaitRejoin() {
	if t.opts.RejoinWait <= 0 {
		return
	}
	deadline := time.Now().Add(t.opts.RejoinWait)
	for !t.closed.Load() && t.lost() != nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// Counters returns the hosted rank's measured wire traffic; r must be
// the local rank (remote ranks' counters live in their processes and
// read zero here).
func (t *TCPTransport) Counters(r int) Counters {
	if r != t.me {
		return Counters{}
	}
	t.counters.mu.Lock()
	defer t.counters.mu.Unlock()
	return t.counters.c
}

// Close tears the endpoint down gracefully: a shutdown frame and a
// half-close on every connection, then waiting (up to shutdownTimeout)
// for peers to finish their own teardown before force-closing sockets.
// After Close every operation fails with ErrTransportClosed. Close is
// idempotent and leaves no goroutines behind.
func (t *TCPTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stop)
	t.ln.Close()
	gen := t.gen.Load()
	for r := range t.conns {
		pc := t.conns[r].Load()
		if pc == nil || pc.retired.Load() != nil {
			continue
		}
		frame := make([]byte, frameHeaderLen)
		putFrameHeader(frame, frameHeader{kind: frameShutdown, src: uint32(t.me), dst: uint32(pc.peer), gen: gen})
		pc.mu.Lock()
		pc.outq = append(pc.outq, frame)
		pc.closing = true
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
	t.box.wake()

	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(shutdownTimeout):
		t.forceClose()
		<-done
	}
	t.forceClose()
	return nil
}

// Kill force-closes the endpoint with no shutdown handshake at all —
// the in-process equivalent of kill -9 on a worker: every peer observes
// a raw EOF (no shutdown frame preceding it) and aborts its world with
// a *PeerCrashError for this rank. Fault-injection substrate; real
// deployments just die.
func (t *TCPTransport) Kill() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	close(t.stop)
	t.forceClose()
	t.box.wake()
	t.wg.Wait()
}

// forceClose closes every socket and the listener outright (bootstrap
// failure, Kill and the shutdown-timeout path).
func (t *TCPTransport) forceClose() {
	if t.ln != nil {
		t.ln.Close()
	}
	t.tableMu.Lock()
	for _, c := range t.held {
		if c != nil {
			c.Close() // a failed bootstrap's registrants learn at once
		}
	}
	t.tableMu.Unlock()
	for r := range t.conns {
		pc := t.conns[r].Load()
		if pc == nil {
			continue
		}
		pc.c.Close()
		pc.mu.Lock()
		pc.closing = true
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
}

// ---------------------------------------------------------------------
// Loopback mesh
// ---------------------------------------------------------------------

// TCPLoopback is an in-process world over real sockets: p single-rank
// TCPTransport endpoints on loopback, fronted as one Transport so the
// standard World/Pool drive and the conformance suite run every byte
// through the full wire path (codec, framing, generation fence) without
// multiple processes. It doubles as the fault-injection substrate: Kill
// simulates kill -9 of one rank and Respawn rejoins a replacement, with
// the same wire traffic a multi-process deployment would see.
type TCPLoopback struct {
	coord string
	tmpl  TCPOptions // per-endpoint template: timeouts, liveness, rejoin policy
	nodes []*TCPTransport
}

var (
	_ Transport = (*TCPLoopback)(nil)
	_ io.Closer = (*TCPLoopback)(nil)
)

// NewTCPLoopback builds a p-rank world of real localhost TCP
// connections inside one process — the `tcp` backend's convenience form
// for tests and single-machine runs (Config.Transport: tcp without a
// coordinator). Every message is encoded, framed, sent through the
// kernel and decoded exactly as in the multi-process deployment. An
// optional TCPOptions value is the template applied to every endpoint
// (timeouts, PeerTimeout/HeartbeatInterval, RejoinWait); its identity
// fields (Coordinator, Rank, Procs, listeners, Rejoin) are overwritten
// per rank. The returned transport must be Closed to release its
// sockets and goroutines.
func NewTCPLoopback(p int, opt ...TCPOptions) (*TCPLoopback, error) {
	if p < 1 {
		panicSize(p)
	}
	var tmpl TCPOptions
	if len(opt) > 0 {
		tmpl = opt[0]
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("comm: tcp loopback listen: %w", err)
	}
	coord := ln.Addr().String()
	m := &TCPLoopback{coord: coord, tmpl: tmpl, nodes: make([]*TCPTransport, p)}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := m.nodeOpts(r)
			if r == 0 {
				opts.CoordinatorListener = ln
			}
			m.nodes[r], errs[r] = DialTCP(opts)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// nodeOpts instantiates the template for one rank.
func (m *TCPLoopback) nodeOpts(rank int) TCPOptions {
	opts := m.tmpl
	opts.Coordinator = m.coord
	opts.Rank = rank
	opts.Procs = len(m.nodes)
	opts.ListenAddr = ""
	opts.CoordinatorListener = nil
	opts.Rejoin = false
	return opts
}

// Node returns rank r's endpoint (fault-injection and inspection hook).
func (m *TCPLoopback) Node(r int) *TCPTransport { return m.nodes[r] }

// Kill force-closes rank r's endpoint with no shutdown handshake — the
// loopback equivalent of kill -9 on that worker process. Surviving
// ranks observe a raw EOF and abort with a *PeerCrashError for r.
func (m *TCPLoopback) Kill(r int) { m.nodes[r].Kill() }

// Respawn replaces a killed rank with a fresh endpoint that rejoins the
// running world (DialTCP with Rejoin), exactly like a respawned worker
// process re-registering at the coordinator. Call it between runs, from
// the goroutine driving the world: the swap is published by the
// happens-before of the next Run. Rank 0 cannot respawn — it hosts the
// coordinator.
func (m *TCPLoopback) Respawn(r int) error {
	old := m.nodes[r]
	if old != nil && !old.closed.Load() {
		return fmt.Errorf("comm: rank %d is still alive; Kill it before Respawn", r)
	}
	opts := m.nodeOpts(r)
	opts.Rejoin = true
	nt, err := DialTCP(opts)
	if err != nil {
		return err
	}
	m.nodes[r] = nt
	return nil
}

// Size returns the number of ranks.
func (m *TCPLoopback) Size() int { return len(m.nodes) }

// Send routes through the sending rank's endpoint.
func (m *TCPLoopback) Send(src, dst int, tag Tag, payload any, bytes int64) error {
	return m.nodes[src].Send(src, dst, tag, payload, bytes)
}

// Recv routes through the receiving rank's endpoint.
func (m *TCPLoopback) Recv(dst, src int, tag Tag) (Message, error) {
	return m.nodes[dst].Recv(dst, src, tag)
}

// TryRecv routes through the receiving rank's endpoint.
func (m *TCPLoopback) TryRecv(dst, src int, tag Tag) (Message, bool, error) {
	return m.nodes[dst].TryRecv(dst, src, tag)
}

// Abort latches every endpoint immediately (the wire broadcast alone
// would leave a window in which a not-yet-poisoned endpoint accepts
// operations).
func (m *TCPLoopback) Abort(err error) {
	for _, n := range m.nodes {
		n.Abort(err)
	}
}

// Err returns the first endpoint's latched abort error, if any.
func (m *TCPLoopback) Err() error {
	for _, n := range m.nodes {
		if err := n.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Reset advances every endpoint to the next generation. The mesh is
// driven by one Pool/World, so no rank is running during Reset and the
// per-endpoint epochs stay in lockstep.
func (m *TCPLoopback) Reset() {
	for _, n := range m.nodes {
		n.Reset()
	}
}

// Counters returns rank r's measured wire traffic.
func (m *TCPLoopback) Counters(r int) Counters { return m.nodes[r].Counters(r) }

// Close tears down every endpoint concurrently.
func (m *TCPLoopback) Close() error {
	var wg sync.WaitGroup
	for _, n := range m.nodes {
		if n == nil {
			continue
		}
		wg.Add(1)
		go func(n *TCPTransport) {
			defer wg.Done()
			n.Close()
		}(n)
	}
	wg.Wait()
	return nil
}
