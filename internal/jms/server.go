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
// Every connection's outbound side is a wire.FrameWriter, the writer
// rgmabin runs too: a bounded queue drained by one goroutine into
// coalesced writes, owning and releasing exactly once every pooled
// Deliver/DeliverBatch it is handed. The publishing reader goroutine
// runs the whole fan-out itself, and wide fan-outs arrive batched — at
// or above the core's batching threshold (64 matched subscriptions)
// each per-connection run reaches Env.Send as one wire.DeliverBatch,
// which the writer splices into one flush; clients see the same MESSAGE
// frames either way. This
// package keeps only the policy: a send that finds the queue full drops
// the connection as a slow consumer (dropConn). EgressStats reports the
// writers' meters.
//
// Servers also peer with each other over the same listener, forming the
// paper's Distributed Broker Network on real TCP: JoinNetwork attaches
// the broker to a brokernet.Member, DialPeer opens an inter-broker link
// (a BROKER_LINK handshake on an ordinary connection upgrades it), and
// forwarded frames ride the same per-connection batching writers as
// client deliveries — a BrokerForward splices the frozen message's
// cached encoding, so relaying costs no re-encode.
//
// Every read loop here — server connections, peer links and the client
// — reads through one wire.FrameReader per connection, so a burst of
// frames costs one read. The client answers a burst the same way: it
// acknowledges AUTO and DUPS_OK deliveries once the burst is decoded,
// when its reader would next block (or when the acks reach
// wire.MaxWriteBatch bytes), merging consecutive acks of one
// subscription into one Ack frame and writing them all in one write. An
// ack still goes only after the listener for its message has returned.
//
// A listener gets each message frozen: received messages are read-only,
// as in JMS, and their fields are views of the bytes they arrived in.
// Publishing a received message (Publish or PublishSync) sends a clone
// stamped with a new ID and Timestamp; the received message is left as
// it was.
package jms

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
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
	// MaxConnMemory is the total connection memory budget (0 =
	// unlimited). Every connection is charged memPerConn against it, so
	// it admits MaxConnMemory/memPerConn connections at once and refuses
	// the next: the paper's admission cliff on real sockets.
	MaxConnMemory int64
}

// memPerConn is each connection's charge against MaxConnMemory: 256 KiB,
// a thread stack on the paper's JVM testbed.
const memPerConn = 256 << 10

// Writer queue lengths. Peer links carry a whole broker's forwarded
// traffic, so they get a much deeper queue than client connections.
const clientWriteBuffer, peerWriteBuffer = 256, 4096

// Server runs a broker core behind a TCP listener. Per-connection reader
// goroutines feed the sharded core directly; per-connection writer
// goroutines shuttle frames out.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	b   *broker.Broker

	// writeBuffer is clientWriteBuffer; see newServer.
	writeBuffer int

	mu      sync.Mutex
	writers map[broker.ConnID]*wire.FrameWriter
	nextID  broker.ConnID
	closed  bool

	// teardown counts the accept loop, every client and peer-link reader
	// and every deferred OnConnClose; Close waits for it. Each Add runs on
	// a goroutine already counted, or under mu before closed is set.
	teardown sync.WaitGroup

	// member is the broker-network attachment (nil until JoinNetwork).
	// Written once under mu; read lock-free on the peer hot path is safe
	// because JoinNetwork must precede any peer link.
	member  *brokernet.Member
	routing brokernet.RoutingMode

	native *simproc.Heap
	heap   *simproc.Heap

	egress wire.EgressMeters
}

// EgressStats reports the egress counters of all the server's writers.
func (s *Server) EgressStats() wire.EgressStats { return s.egress.Stats() }

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
	return newServer(ln, cfg, clientWriteBuffer, restore)
}

// newServer is NewServerRestored with the client writer queue length
// as a parameter, so in-package tests can overflow it in a few frames.
func newServer(ln net.Listener, cfg ServerConfig, writeBuffer int, restore func(*broker.Broker) error) (*Server, error) {
	if cfg.Broker.ID == "" {
		cfg.Broker.ID = "naradad"
	}
	if cfg.Broker.Shards <= 0 {
		cfg.Broker.Shards = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		writeBuffer: writeBuffer,
		writers:     make(map[broker.ConnID]*wire.FrameWriter),
		native:      simproc.NewHeap("server-native", cfg.MaxConnMemory, 0),
		heap:        simproc.NewHeap("server-heap", 0, 0),
	}
	s.b = broker.New((*serverEnv)(s), cfg.Broker)
	if restore != nil {
		if err := restore(s.b); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	s.teardown.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Broker exposes the wrapped core. The broker's API is shard-safe, but
// recovery-oriented calls (Restore*, Dump*) assume quiescence — use the
// NewServerRestored callback or call after Close.
func (s *Server) Broker() *broker.Broker { return s.b }

// Close stops the server and drops all connections. It returns once
// their teardown is done: every reader has exited and the core has
// released every connection, so the broker is quiescent and a persister
// may dump it at once.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, w := range s.writers {
			_ = w.Conn().Close()
		}
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	s.teardown.Wait()
}

// Stats proxies the broker core's counters. The core keeps them in
// atomics, so this is safe from any goroutine.
func (s *Server) Stats() broker.Stats {
	return s.b.Stats()
}

func (s *Server) accept() {
	defer s.teardown.Done()
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
		w := wire.NewFrameWriter(conn, s.writeBuffer, &s.egress)
		s.writers[id] = w
		s.mu.Unlock()

		// Admission runs on the accept goroutine; the broker's session
		// layer serializes it internally.
		if s.b.OnConnOpen(id) != nil {
			s.dropConn(id, w, false)
			continue
		}
		go w.Run()
		s.teardown.Add(1)
		go s.read(id, w)
	}
}

// read pumps one connection's frames straight into the core: reads of
// different connections execute concurrently, serialized only where
// they meet on a destination shard.
func (s *Server) read(id broker.ConnID, w *wire.FrameWriter) {
	defer s.teardown.Done()
	fr := wire.NewFrameReader(w.Conn())
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
	s.routing = mode
	return s.member, nil
}

// Member returns the broker-network member (nil before JoinNetwork).
func (s *Server) Member() *brokernet.Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.member
}

// newPeerWriter registers a deep-buffered writer for a peer link and
// starts its writer goroutine. With old == nil a fresh id is allocated
// and the link's reader-to-be counted in s.teardown (outbound dial);
// otherwise old's registration is atomically replaced and old's writer
// goroutine stopped (inbound upgrade — old's queue is empty by
// construction: a connection whose first frame was the peer handshake
// was never sent anything).
func (s *Server) newPeerWriter(id broker.ConnID, old *wire.FrameWriter, conn net.Conn) (broker.ConnID, *wire.FrameWriter, error) {
	w := wire.NewFrameWriter(conn, peerWriteBuffer, &s.egress)
	s.mu.Lock()
	if s.closed || (old != nil && s.writers[id] != old) {
		s.mu.Unlock()
		return 0, nil, errors.New("jms: server closed")
	}
	if old == nil {
		s.nextID++
		id = s.nextID
		s.teardown.Add(1)
	}
	s.writers[id] = w
	s.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	go w.Run()
	return id, w, nil
}

// peerSender builds the brokernet.LinkSender for one peer link: a
// non-blocking enqueue onto the link's writer. Enqueue-only is
// the LinkSender contract (the caller holds member and shard locks), and
// non-blocking keeps a stalled peer from wedging publishers: on
// overflow the TCP connection is closed, the link's read loop observes
// the error on its own goroutine and detaches the peer — the same
// drop-the-slow-consumer policy clients get, with a much deeper queue.
func (s *Server) peerSender(w *wire.FrameWriter) brokernet.LinkSender {
	return func(f wire.Frame) {
		if w.TrySend(f) == wire.SendFull {
			_ = w.Conn().Close()
		}
	}
}

// handlePeerLink upgrades an accepted client connection into a peer
// link: release the client session the accept path admitted, answer the
// handshake, register the link, and pump peer frames.
func (s *Server) handlePeerLink(id broker.ConnID, w *wire.FrameWriter, bl wire.BrokerLink, fr *wire.FrameReader) {
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
	_, pw, err := s.newPeerWriter(id, w, w.Conn())
	if err != nil {
		_ = w.Conn().Close()
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
	// first, the peer's reply before anything else. The handshake's
	// reader serves the link for its lifetime: the peer may send its
	// first interest frames in the same segment as the reply.
	f, fr, err := wire.Handshake(conn, wire.BrokerLink{BrokerID: s.b.ID(), Routing: uint8(routing)}, 10*time.Second)
	if err != nil {
		_ = conn.Close()
		return "", fmt.Errorf("jms: peer handshake %s: %w", addr, err)
	}
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
		s.teardown.Done()
		return "", err
	}
	go func() {
		defer s.teardown.Done()
		s.readPeer(id, pw, member, reply.BrokerID, fr)
	}()
	return reply.BrokerID, nil
}

// readPeer pumps one peer link's frames into the broker network. On
// link death the peer is detached and its subtree's interest withdrawn.
func (s *Server) readPeer(id broker.ConnID, w *wire.FrameWriter, member *brokernet.Member, peerID string, fr *wire.FrameReader) {
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
// upgrade), so the core hears of each connection's close once.
func (s *Server) dropConn(id broker.ConnID, w *wire.FrameWriter, notify bool) {
	s.mu.Lock()
	live := s.writers[id] == w
	if live {
		delete(s.writers, id)
		w.Stop()
	}
	s.mu.Unlock()
	_ = w.Conn().Close()
	if notify && live {
		// Always on a fresh goroutine: Send may drop a slow consumer
		// from inside a delivery — while the subscription's own leaf
		// lock is held (topic routing) or its shard lock (queue drain)
		// — and OnConnClose takes both. It is safe from any goroutine.
		s.teardown.Add(1)
		go func() {
			defer s.teardown.Done()
			s.b.OnConnClose(id)
		}()
	}
}

// serverEnv implements broker.Env. All methods are safe for concurrent
// use: frame queues are per-connection FrameWriters behind the writers
// mutex, memory accounting is atomic (simproc.Heap).
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
		wire.Release(f)
		return
	}
	if w.TrySend(f) == wire.SendFull {
		// Slow consumer: drop the connection rather than block the
		// broker (NaradaBrokering-era brokers did the same). TrySend
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

func (e *serverEnv) AllocConn() error { return (*Server)(e).native.Alloc(memPerConn) }

func (e *serverEnv) FreeConn() { (*Server)(e).native.Free(memPerConn) }

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
