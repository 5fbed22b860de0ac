// Package jms binds the sans-I/O broker core to real TCP, providing the
// server used by cmd/naradad and a JMS-flavoured client API (Connection /
// Subscribe with listener callbacks / synchronous Publish). The same
// broker core that runs under the simulator for the paper's experiments
// serves real sockets here, so everything validated by the simulation —
// selectors, acknowledgement bookkeeping, durable subscriptions — holds
// on the wire.
//
// The server dispatches each connection's reader goroutine straight
// into the broker core: the core's destination layer is partitioned
// into lock-guarded shards (broker.Config.Shards, defaulted here to
// GOMAXPROCS), so publishes to different topics execute concurrently on
// different cores and the single-event-loop ceiling of the paper's
// broker is gone. Topic routing itself is lock-free on the publish side
// — a reader goroutine carrying a Publish routes through the shard's
// copy-on-write subscriber snapshot without taking the shard lock at
// all, so publishes to the *same* topic do not serialize on routing
// either (see the broker package comment).
//
// Wide fan-outs arrive at the writers batched: at or above the core's
// fan-out threshold (64 matched subscriptions) it hands each
// per-connection run to Env.Send as one wire.DeliverBatch, and the
// connection's writer splices the frozen message's cached encoding once
// per entry into a single buffered flush — one syscall where per-frame
// emission made N — switching to vectored writev (net.Buffers) for
// large payloads so the encodings are never copied at all. The batch's
// stream form is exactly the N MESSAGE frames it stands for, so clients
// are untouched. EgressStats reports writer flushes, frames and writev
// use.
//
// The writer owns every pooled frame it dequeues and releases it
// exactly once, including on the slow-consumer and shutdown paths: a
// writer that dies drains its queue under a writer-side quiescence lock
// (connWriter.quit), and senders that lose the enqueue race release the
// frame themselves (trySend). A DeliverBatch dropped this way releases
// the whole batch once — never per-entry.
//
// Servers also peer with each other over the same listener, forming the
// paper's Distributed Broker Network on real TCP: JoinNetwork attaches
// the broker to a brokernet.Member, DialPeer opens an inter-broker link
// (a BROKER_LINK handshake on an ordinary connection upgrades it), and
// forwarded frames ride the same per-connection batching writers as
// client deliveries — a BrokerForward splices the frozen message's
// cached encoding, so relaying costs no re-encode.
package jms

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/broker"
	"gridmon/internal/brokernet"
	"gridmon/internal/simproc"
	"gridmon/internal/wire"
)

// ServerConfig tunes the TCP broker server.
type ServerConfig struct {
	// Broker configures the wrapped core; zero value gets defaults with
	// one destination shard per CPU. Set Broker.Shards to pin the shard
	// count.
	Broker broker.Config
	// MaxConnMemory bounds simulated per-connection memory, reproducing
	// the paper's admission cliff on real sockets too (0 = unlimited).
	MaxConnMemory int64
	// MemPerConn is the per-connection charge against MaxConnMemory.
	MemPerConn int64
	// WriteBuffer is the per-connection outbound frame queue length.
	WriteBuffer int
	// PeerWriteBuffer is the outbound frame queue length for
	// broker-to-broker links (default 4096). Peer links absorb the
	// aggregated forward traffic of a whole broker, so they get a much
	// deeper queue than client connections; a peer that still overflows
	// it is dropped like any slow consumer.
	PeerWriteBuffer int
}

// Server runs a broker core behind a TCP listener. Per-connection reader
// goroutines feed the sharded core directly; per-connection writer
// goroutines shuttle frames out.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	b   *broker.Broker

	mu      sync.Mutex
	writers map[broker.ConnID]*connWriter
	nextID  broker.ConnID
	closed  bool

	// member is the broker-network attachment (nil until JoinNetwork).
	// Written once under mu; read lock-free on the peer hot path is safe
	// because JoinNetwork must precede any peer link.
	member  *brokernet.Member
	routing brokernet.RoutingMode

	native *simproc.SharedHeap
	heap   *simproc.SharedHeap

	egress egressMeters
}

type connWriter struct {
	conn net.Conn
	out  chan wire.Frame
	done chan struct{}
	eg   *egressMeters

	// quit guards the enqueue/shutdown race for pooled frames: senders
	// enqueue under the read lock, the exiting writer goroutine sets dead
	// under the write lock and then drains the channel. Any frame
	// enqueued before the writer observed dead is therefore drained (and
	// released) by the writer; any sender arriving after sees dead and
	// releases the frame itself — every pooled frame is released exactly
	// once no matter when the connection dies.
	quit sync.RWMutex
	dead bool
}

// sendResult reports what trySend did with the frame.
type sendResult int

const (
	sendOK   sendResult = iota
	sendFull            // queue full: frame released, connection should drop
	sendDead            // writer exited: frame released
)

// trySend enqueues f for the writer goroutine without blocking. The
// frame's ownership transfers to the writer only on sendOK; on sendFull
// and sendDead it has already been released here.
func (w *connWriter) trySend(f wire.Frame) sendResult {
	w.quit.RLock()
	if w.dead {
		w.quit.RUnlock()
		release(f)
		return sendDead
	}
	select {
	case w.out <- f:
		w.quit.RUnlock()
		return sendOK
	default:
		w.quit.RUnlock()
		release(f)
		return sendFull
	}
}

// shutdown marks the writer dead and releases every frame still queued.
// Called exactly once, from the writer goroutine's exit path.
func (w *connWriter) shutdown() {
	w.quit.Lock()
	w.dead = true
	w.quit.Unlock()
	for {
		select {
		case f := <-w.out:
			release(f)
		default:
			return
		}
	}
}

// egressMeters counts transport-level egress batching on a server: how
// many socket flushes the per-connection writers performed, how many
// frames those flushes carried (a DeliverBatch counts each spliced
// Deliver), and how many flushes went out as vectored writes.
type egressMeters struct {
	flushes atomic.Uint64
	frames  atomic.Uint64
	writevs atomic.Uint64
}

// EgressStats is the naradad /stats view of the transport egress layer.
type EgressStats struct {
	WriterFlushes  uint64  `json:"writer_flushes"`
	WriterFrames   uint64  `json:"writer_frames"`
	WriterWritevs  uint64  `json:"writer_writevs"`
	FramesPerFlush float64 `json:"frames_per_flush"`
}

// EgressStats reports the server's transport egress counters.
func (s *Server) EgressStats() EgressStats {
	fl, fr := s.egress.flushes.Load(), s.egress.frames.Load()
	es := EgressStats{WriterFlushes: fl, WriterFrames: fr, WriterWritevs: s.egress.writevs.Load()}
	if fl > 0 {
		es.FramesPerFlush = float64(fr) / float64(fl)
	}
	return es
}

// NewServer starts a broker server on the given listener. Close releases
// it.
func NewServer(ln net.Listener, cfg ServerConfig) *Server {
	s, _ := NewServerRestored(ln, cfg, nil)
	return s
}

// NewServerRestored builds the server but runs restore on the wrapped
// broker core before the listener starts accepting. That window is the
// recovery slot: no connection exists yet, so the broker is quiescent
// and the callback may replay journaled state (Restore*), take a
// compaction snapshot (Dump*), and attach a Journal — cmd/naradad wires
// brokerwal through here when -data-dir is set. A restore error aborts
// startup and closes the listener.
func NewServerRestored(ln net.Listener, cfg ServerConfig, restore func(*broker.Broker) error) (*Server, error) {
	if cfg.Broker == (broker.Config{}) {
		cfg.Broker = broker.DefaultConfig("naradad")
	} else if cfg.Broker.ID == "" {
		cfg.Broker.ID = "naradad"
	}
	if cfg.Broker.Shards <= 0 {
		cfg.Broker.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.WriteBuffer <= 0 {
		cfg.WriteBuffer = 256
	}
	if cfg.PeerWriteBuffer <= 0 {
		cfg.PeerWriteBuffer = 4096
	}
	if cfg.MemPerConn <= 0 {
		cfg.MemPerConn = 256 << 10
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		writers: make(map[broker.ConnID]*connWriter),
		native:  simproc.NewSharedHeap("server-native", cfg.MaxConnMemory, 0),
		heap:    simproc.NewSharedHeap("server-heap", 0, 0),
	}
	s.b = broker.New((*serverEnv)(s), cfg.Broker)
	if restore != nil {
		if err := restore(s.b); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	go s.accept()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Broker exposes the wrapped core. The broker's API is shard-safe, but
// recovery-oriented calls (Restore*, Dump*) assume quiescence — use the
// NewServerRestored callback or call after Close.
func (s *Server) Broker() *broker.Broker { return s.b }

// Close stops the server and drops all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	writers := make([]*connWriter, 0, len(s.writers))
	for _, w := range s.writers {
		writers = append(writers, w)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, w := range writers {
		_ = w.conn.Close()
	}
}

// Stats proxies the broker core's counters. The core keeps them in
// atomics, so this is safe from any goroutine.
func (s *Server) Stats() broker.Stats {
	return s.b.Stats()
}

func (s *Server) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.nextID++
		id := s.nextID
		w := &connWriter{conn: conn, out: make(chan wire.Frame, s.cfg.WriteBuffer), done: make(chan struct{}), eg: &s.egress}
		s.writers[id] = w
		s.mu.Unlock()

		// Admission runs on the accept goroutine; the broker's session
		// layer serializes it internally.
		if s.b.OnConnOpen(id) != nil {
			s.dropConn(id, w, false)
			continue
		}
		go w.run()
		go s.read(id, w)
	}
}

// maxWriteBatch caps how many bytes of queued frames the writer encodes
// into one buffer before flushing to the socket.
const maxWriteBatch = 64 << 10

// writeBufPool recycles per-connection encode buffers across connection
// lifetimes, so churning clients don't allocate a fresh buffer per
// accept. Buffers are pooled behind a pointer so Put doesn't box the
// slice header; oversized buffers are dropped rather than pooled.
var writeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// release returns a consumed frame to its pool. The writer owns each
// frame it dequeues once encoding is done; broker fan-out Deliver frames
// and DeliverBatch envelopes are pooled, everything else is left to the
// GC.
func release(f wire.Frame) {
	switch d := f.(type) {
	case *wire.Deliver:
		wire.PutDeliver(d)
	case *wire.DeliverBatch:
		wire.PutDeliverBatch(d)
	}
}

// vecPayloadMin is the smallest cached encoding for which a multi-entry
// DeliverBatch goes out as a vectored write (one writev referencing the
// shared payload N times) instead of being spliced into the coalescing
// buffer N times. Below it, copying into one buffer is cheaper than the
// per-iovec syscall bookkeeping.
const vecPayloadMin = 4 << 10

func (w *connWriter) run() {
	// One reusable encode buffer per connection (pooled across
	// connections): frames already queued when the writer wakes
	// (same-tick deliveries of a fan-out, or one broker-batched
	// DeliverBatch, which AppendFrame splices as N MESSAGE frames
	// sharing one cached payload encoding) are coalesced into a single
	// Write call. On every exit path shutdown drains and releases the
	// frames still queued, so pooled Delivers/DeliverBatches are
	// returned exactly once even when the connection dies mid-stream.
	bp := writeBufPool.Get().(*[]byte)
	buf := *bp
	var vec [][]byte // writev scratch, reused across flushes
	defer func() {
		w.shutdown()
		if cap(buf) <= maxWriteBatch {
			*bp = buf[:0]
			writeBufPool.Put(bp)
		}
	}()
	for {
		select {
		case f := <-w.out:
			// Large-payload batches skip the copy entirely: one writev
			// whose iovecs alternate per-entry headers (sliced from buf)
			// with the single shared payload encoding.
			if b, ok := f.(*wire.DeliverBatch); ok && len(b.Entries) >= 2 && b.Msg.EncodedSize() >= vecPayloadMin {
				frames := len(b.Entries)
				v, hdr, err := wire.AppendDeliverBatchVec(vec[:0], buf[:0], b)
				release(f)
				if err != nil {
					_ = w.conn.Close()
					return
				}
				vec, buf = v, hdr
				bufs := net.Buffers(vec)
				_, err = bufs.WriteTo(w.conn)
				if err != nil {
					_ = w.conn.Close()
					return
				}
				w.eg.flushes.Add(1)
				w.eg.frames.Add(uint64(frames))
				w.eg.writevs.Add(1)
				if cap(buf) > maxWriteBatch {
					buf = make([]byte, 0, 4096)
				}
				continue
			}
			frames := wire.FrameCount(f)
			var err error
			buf, err = wire.AppendFrame(buf[:0], f)
			release(f)
			if err != nil {
				_ = w.conn.Close()
				return
			}
		coalesce:
			for len(buf) < maxWriteBatch {
				select {
				case f2 := <-w.out:
					frames += wire.FrameCount(f2)
					buf, err = wire.AppendFrame(buf, f2)
					release(f2)
					if err != nil {
						// Flush the frames that did encode before
						// dropping the connection.
						_, _ = w.conn.Write(buf)
						_ = w.conn.Close()
						return
					}
				default:
					break coalesce
				}
			}
			if _, err := w.conn.Write(buf); err != nil {
				_ = w.conn.Close()
				return
			}
			w.eg.flushes.Add(1)
			w.eg.frames.Add(uint64(frames))
			// An occasional oversized frame must not pin its buffer for
			// the connection's lifetime.
			if cap(buf) > maxWriteBatch {
				buf = make([]byte, 0, 4096)
			}
		case <-w.done:
			return
		}
	}
}

// read pumps one connection's frames straight into the core: reads of
// different connections execute concurrently, serialized only where
// they meet on a destination shard.
func (s *Server) read(id broker.ConnID, w *connWriter) {
	fr := wire.NewFrameReader(w.conn)
	for first := true; ; first = false {
		f, err := fr.Read()
		if err != nil {
			s.dropConn(id, w, true)
			return
		}
		if bl, ok := f.(wire.BrokerLink); ok {
			// A dialing peer broker, not a client: convert the
			// connection into an inter-broker link and hand the read
			// loop over to the broker network. Only the connection's
			// first frame may do this — the upgrade path assumes a
			// session with no subscriptions and an empty write queue,
			// so a mid-session BrokerLink is a protocol violation.
			if first {
				s.handlePeerLink(id, w, bl, fr)
			} else {
				s.dropConn(id, w, true)
			}
			return
		}
		s.b.OnFrame(id, f)
	}
}

// --- broker-to-broker links ---

// Errors returned by the peering API.
var (
	ErrNotJoined     = errors.New("jms: JoinNetwork before peering")
	ErrAlreadyJoined = errors.New("jms: JoinNetwork called twice")
)

// JoinNetwork makes the server's broker a member of a Distributed Broker
// Network with the given routing mode. It must be called once, before
// any peer links are dialed or accepted.
func (s *Server) JoinNetwork(mode brokernet.RoutingMode) (*brokernet.Member, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.member != nil {
		return nil, ErrAlreadyJoined
	}
	s.member = brokernet.NewMember(s.b, mode)
	// Peer fan-out shares the broker's worker pool.
	s.member.SetFanoutPool(s.b.FanoutPool())
	s.routing = mode
	return s.member, nil
}

// Member returns the broker-network member (nil before JoinNetwork).
func (s *Server) Member() *brokernet.Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.member
}

// newPeerWriter registers a deep-buffered connWriter for a peer link and
// starts its writer goroutine. With old == nil a fresh id is allocated
// (outbound dial); otherwise old's registration is atomically replaced
// and old's writer goroutine stopped (inbound upgrade — old's queue is
// empty by construction: a connection whose first frame was the peer
// handshake was never sent anything).
func (s *Server) newPeerWriter(id broker.ConnID, old *connWriter, conn net.Conn) (broker.ConnID, *connWriter, error) {
	w := &connWriter{conn: conn, out: make(chan wire.Frame, s.cfg.PeerWriteBuffer), done: make(chan struct{}), eg: &s.egress}
	s.mu.Lock()
	if s.closed || (old != nil && s.writers[id] != old) {
		s.mu.Unlock()
		return 0, nil, errors.New("jms: server closed")
	}
	if old == nil {
		s.nextID++
		id = s.nextID
	}
	s.writers[id] = w
	s.mu.Unlock()
	if old != nil {
		close(old.done)
	}
	go w.run()
	return id, w, nil
}

// peerSender builds the brokernet.LinkSender for one peer link: a
// non-blocking enqueue onto the link's writer channel. Enqueue-only is
// the LinkSender contract (the caller holds member and shard locks), and
// non-blocking keeps a stalled peer from wedging publishers: on
// overflow the TCP connection is closed, the link's read loop observes
// the error on its own goroutine and detaches the peer — the same
// drop-the-slow-consumer policy clients get, with a much deeper queue.
func (s *Server) peerSender(w *connWriter) brokernet.LinkSender {
	return func(f wire.Frame) {
		if w.trySend(f) == sendFull {
			_ = w.conn.Close()
		}
	}
}

// handlePeerLink upgrades an accepted client connection into a peer
// link: release the client session the accept path admitted, answer the
// handshake, register the link, and pump peer frames.
func (s *Server) handlePeerLink(id broker.ConnID, w *connWriter, bl wire.BrokerLink, fr *wire.FrameReader) {
	// The connection was admitted as a client (and has processed no
	// other frame, so it owns no subscriptions); hand that session back.
	s.b.OnConnClose(id)

	s.mu.Lock()
	member, routing := s.member, s.routing
	s.mu.Unlock()
	if member == nil || bl.Routing != uint8(routing) {
		s.dropConn(id, w, false)
		return
	}
	// Swap the accept-time writer (client-sized queue, empty: nothing
	// was ever sent to this conn) for a peer-sized one.
	_, pw, err := s.newPeerWriter(id, w, w.conn)
	if err != nil {
		_ = w.conn.Close()
		return
	}
	// The success reply travels as Link's preamble: it is enqueued only
	// after validation succeeds, atomically with registration and ahead
	// of the interest advertisements — so a refused dialer (duplicate
	// link, including a stale one whose death we haven't observed yet)
	// never sees success and keeps retrying, while an accepted dialer's
	// synchronous handshake read sees BrokerLink first.
	reply := wire.BrokerLink{BrokerID: s.b.ID(), Routing: uint8(routing)}
	if err := member.Link(bl.BrokerID, s.peerSender(pw), reply); err != nil {
		s.dropConn(id, pw, false)
		return
	}
	s.readPeer(id, pw, member, bl.BrokerID, fr)
}

// DialPeer connects this broker to a peer broker's listener, registers
// the link with the broker network and returns the peer's broker id.
// Each link should be configured on exactly one of its two ends (both
// ends dialing each other would be rejected as a duplicate link by
// whichever handshake lands second). Links are not supervised: a caller
// that wants the link back after a failure watches
// Member().HasPeer(peerID) and re-dials (cmd/naradad does).
func (s *Server) DialPeer(addr string) (string, error) {
	s.mu.Lock()
	member, routing := s.member, s.routing
	s.mu.Unlock()
	if member == nil {
		return "", ErrNotJoined
	}
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return "", fmt.Errorf("jms: dial peer %s: %w", addr, err)
	}
	// Handshake synchronously on the dialing goroutine: our BrokerLink
	// first, the peer's reply before anything else.
	if err := wire.WriteFrame(conn, wire.BrokerLink{BrokerID: s.b.ID(), Routing: uint8(routing)}); err != nil {
		_ = conn.Close()
		return "", fmt.Errorf("jms: peer handshake %s: %w", addr, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := wire.ReadFrame(conn)
	if err != nil {
		_ = conn.Close()
		return "", fmt.Errorf("jms: peer handshake %s: %w", addr, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	reply, ok := f.(wire.BrokerLink)
	if !ok {
		_ = conn.Close()
		return "", fmt.Errorf("jms: peer %s answered %v, want BROKER_LINK", addr, f.Type())
	}
	if reply.Routing != uint8(routing) {
		_ = conn.Close()
		return "", fmt.Errorf("jms: peer %s routes %q, this broker routes %q", addr,
			brokernet.RoutingMode(reply.Routing), routing)
	}
	id, pw, err := s.newPeerWriter(0, nil, conn)
	if err != nil {
		_ = conn.Close()
		return "", err
	}
	if err := member.Link(reply.BrokerID, s.peerSender(pw)); err != nil {
		s.dropConn(id, pw, false)
		return "", err
	}
	go s.readPeer(id, pw, member, reply.BrokerID, wire.NewFrameReader(conn))
	return reply.BrokerID, nil
}

// readPeer pumps one peer link's frames into the broker network. On
// link death the peer is detached and its subtree's interest withdrawn.
func (s *Server) readPeer(id broker.ConnID, w *connWriter, member *brokernet.Member, peerID string, fr *wire.FrameReader) {
	for {
		f, err := fr.Read()
		if err != nil {
			member.RemovePeer(peerID)
			s.dropConn(id, w, false)
			return
		}
		member.OnPeerFrame(peerID, f)
	}
}

// dropConn tears down one connection; notify releases core state. The
// first dropper wins: later calls for the same id are no-ops, as are
// calls holding a stale writer (a client writer swapped out by a peer
// upgrade), so w.done is closed exactly once.
func (s *Server) dropConn(id broker.ConnID, w *connWriter, notify bool) {
	s.mu.Lock()
	live := s.writers[id] == w
	if live {
		delete(s.writers, id)
		close(w.done)
	}
	s.mu.Unlock()
	_ = w.conn.Close()
	if notify && live {
		// Always on a fresh goroutine: Send may drop a slow consumer
		// from inside a delivery — while the subscription's own leaf
		// lock is held (topic routing) or its shard lock (queue drain)
		// — and OnConnClose takes both. It is safe from any goroutine.
		go s.b.OnConnClose(id)
	}
}

// serverEnv implements broker.Env. All methods are safe for concurrent
// use: frame queues are per-connection channels behind the writers
// mutex, memory accounting is atomic (simproc.SharedHeap).
type serverEnv Server

func (e *serverEnv) Now() int64 { return time.Now().UnixNano() }

func (e *serverEnv) Send(id broker.ConnID, f wire.Frame) {
	s := (*Server)(e)
	s.mu.Lock()
	w, ok := s.writers[id]
	s.mu.Unlock()
	if !ok {
		// The connection was dropped and its deferred OnConnClose has not
		// run yet, so the core still routes to it: this frame has no
		// writer to own it.
		release(f)
		return
	}
	switch w.trySend(f) {
	case sendOK, sendDead:
	case sendFull:
		// Slow consumer: drop the connection rather than block the
		// broker (NaradaBrokering-era brokers did the same). trySend
		// already released the frame.
		s.dropConn(id, w, true)
	}
}

func (e *serverEnv) CloseConn(id broker.ConnID) {
	s := (*Server)(e)
	s.mu.Lock()
	w, ok := s.writers[id]
	s.mu.Unlock()
	if ok {
		s.dropConn(id, w, false)
	}
}

func (e *serverEnv) AllocConn() error {
	return (*Server)(e).native.Alloc((*Server)(e).cfg.MemPerConn)
}

func (e *serverEnv) FreeConn() { (*Server)(e).native.Free((*Server)(e).cfg.MemPerConn) }

func (e *serverEnv) Alloc(n int64) error { return (*Server)(e).heap.Alloc(n) }

func (e *serverEnv) Free(n int64) { (*Server)(e).heap.Free(n) }

// ListenAndServe starts a server on addr and returns it.
func ListenAndServe(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("jms: listen %s: %w", addr, err)
	}
	return NewServer(ln, cfg), nil
}
