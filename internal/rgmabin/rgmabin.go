// Package rgmabin serves the R-GMA virtual database over a persistent
// binary TCP transport — the push counterpart to internal/rgmahttp's
// request/response polling, closing the architectural gap the paper
// measured between R-GMA (subscribers poll their consumer every 100 ms)
// and JMS (the broker pushes). Both bindings wrap the same
// rgmacore.Core, so a table created over one transport is visible to
// producers and consumers on the other, and cmd/rgmad serves both
// ports off one core.
//
// Protocol (internal/wire framing, big-endian, 4-byte length prefix):
// the client's first frame is RGMAHello, answered by RGMAWelcome; after
// that any number of requests (RGMACreateTable, RGMAProducerCreate,
// RGMAInsert — batched, many INSERT statements per frame —
// RGMAConsumerCreate, RGMAPop, RGMAClose) may be outstanding at once,
// each carrying a client-assigned Seq echoed by its RGMAOK / RGMAErr /
// RGMATuples reply. Continuous queries are push-fed: the server
// registers a core sink at create time, and every matching insert is
// encoded once (rgmacore.Streamed.Encoded + RGMATuples.Enc splicing,
// shared across all subscribed connections) and pushed as an
// unsolicited RGMATuples with Seq 0. Latest/history queries stay
// request/response via RGMAPop, as on every transport.
//
// # Concurrency and ordering
//
// Each connection has one reader goroutine (which executes requests
// against the concurrency-safe core inline) and one wire.FrameWriter, the
// coalescing writer internal/jms runs too, which merges queue-adjacent
// pushes for one consumer into one RGMATuples frame. Requests on one
// connection are executed in arrival order; pushes for one consumer
// arrive in the producer's insert order (the core fans out on the
// inserting goroutine and the writer preserves queue order). A push
// may overtake the RGMAOK of the consumer-create that subscribed it; the
// client buffers such early tuples and replays them in order.
//
// # Slow consumers
//
// The writer queue is bounded (1024 frames). A connection whose
// queue overflows — a consumer not draining its TCP socket — is dropped
// (the R-GMA analogue of the broker's slow-consumer policy): the socket
// is closed, the reader observes the error on its own goroutine and
// releases the connection's producers and consumers in the core. Sinks
// never block an inserting producer. EgressStats().SlowConsumerDrops
// counts each dropped connection once, however many sends found its
// queue full.
package rgmabin

import (
	"errors"
	"net"
	"sync"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/wire"
)

// RGMAErr codes.
const (
	CodeBadRequest uint8 = iota + 1
	CodeNotFound
	CodeConflict
)

// serverID is announced in the RGMAWelcome handshake.
const serverID = "rgmad"

// connWriteBuffer is the per-connection outbound frame queue length;
// overflow drops the connection (slow-consumer policy).
const connWriteBuffer = 1024

// Server accepts binary R-GMA connections against a shared core.
type Server struct {
	core *rgmacore.Core
	ln   net.Listener

	// writeBuffer is connWriteBuffer, a field only so tests can size
	// the queues (export_test.go).
	writeBuffer int

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool

	// teardown counts the accept loop and every reader; Close waits for
	// it. A reader's Add runs under mu before closed is set.
	teardown sync.WaitGroup

	egress wire.EgressMeters
}

// EgressStats reports the connection writers' egress counters.
func (s *Server) EgressStats() wire.EgressStats { return s.egress.Stats() }

// NewServer wraps a core (possibly shared with an rgmahttp.Server) in
// an unstarted binary server.
func NewServer(core *rgmacore.Core) *Server {
	return &Server{core: core, writeBuffer: connWriteBuffer, conns: make(map[*serverConn]struct{})}
}

// Core returns the server's service core.
func (s *Server) Core() *rgmacore.Core { return s.core }

// ListenAndServe starts accepting on addr and returns the bound
// address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.teardown.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.teardown.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := &serverConn{
			s:         s,
			nc:        nc,
			w:         wire.NewFrameWriter(nc, s.writeBuffer, &s.egress),
			producers: make(map[int64]struct{}),
			consumers: make(map[int64]bool),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.teardown.Add(1)
		s.mu.Unlock()
		go c.w.Run()
		go c.read()
	}
}

// Close stops accepting and drops every connection. It returns once
// their teardown is done: every reader has finished its in-flight
// request and released its push-fed consumers, so the core is
// quiescent and a persister may dump it at once. Producers and polling
// consumers stay registered, as a kill -9 would leave them: they are
// the core's durable state, which a persister's clean-shutdown
// snapshot keeps across the restart.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.nc.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.teardown.Wait()
	return nil
}

// serverConn is one accepted connection: a reader goroutine executing
// requests inline against the core, a writer goroutine coalescing the
// outbound queue, and the producer/consumer resources the connection
// owns (released at teardown, so a dying client cannot strand push-fed
// consumers in the fan-out index). consumers maps each consumer to
// whether it is push-fed. The resource maps are touched only by the
// reader goroutine.
type serverConn struct {
	s  *Server
	nc net.Conn
	w  *wire.FrameWriter

	producers map[int64]struct{}
	consumers map[int64]bool
}

// send enqueues a frame without blocking (core fan-out calls it on the
// inserting goroutine). A full queue means the peer is not draining
// its socket: close it, and the reader goroutine tears down.
func (c *serverConn) send(f wire.Frame) {
	if c.w.TrySend(f) == wire.SendFull {
		_ = c.nc.Close()
	}
}

func (c *serverConn) read() {
	defer c.s.teardown.Done()
	defer c.teardown()
	fr := wire.NewFrameReader(c.nc)
	f, err := fr.Read()
	if err != nil {
		return
	}
	if _, ok := f.(wire.RGMAHello); !ok {
		return
	}
	c.send(wire.RGMAWelcome{ServerID: serverID})
	for {
		f, err := fr.Read()
		if err != nil {
			return
		}
		c.handle(f)
	}
}

// teardown runs once, on the reader goroutine, after the read loop
// exits (socket error, peer close, slow-consumer drop or server Close):
// it stops the writer, forgets the connection and releases its core
// resources — unsubscribing any push-fed consumers from the fan-out
// index. Under server Close it releases only the push-fed consumers,
// which are bound to this socket and unjournaled; see Close.
func (c *serverConn) teardown() {
	_ = c.nc.Close()
	c.w.Stop()
	c.s.mu.Lock()
	closing := c.s.closed
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	if !closing {
		for id := range c.producers {
			_ = c.s.core.CloseProducer(id)
		}
	}
	for id, push := range c.consumers {
		if push || !closing {
			_ = c.s.core.CloseConsumer(id)
		}
	}
}

// errFrame maps a core error onto the wire's error vocabulary.
func errFrame(seq int64, err error) wire.RGMAErr {
	code := CodeBadRequest
	switch {
	case errors.Is(err, rgmacore.ErrNotFound):
		code = CodeNotFound
	case errors.Is(err, rgmacore.ErrConflict):
		code = CodeConflict
	}
	return wire.RGMAErr{Seq: seq, Code: code, Msg: err.Error()}
}

// encodeTuple is the transport encoding a Streamed caches: one tuple's
// RGMATuples body element.
func encodeTuple(t rgmacore.PopTuple) []byte {
	return wire.AppendRGMATuple(nil, wire.RGMATuple{Row: t.Row, InsertedAt: t.InsertedAt})
}

// pushSink is the core sink for this connection's continuous consumers:
// it runs inline on the inserting goroutine, reuses the insert's shared
// encoding, and enqueues without blocking.
func (c *serverConn) pushSink(consumerID int64, st *rgmacore.Streamed) {
	enc := st.Encoded(encodeTuple)
	c.send(wire.RGMATuples{Consumer: consumerID, Enc: [][]byte{enc}})
}

func (c *serverConn) handle(f wire.Frame) {
	switch v := f.(type) {
	case wire.RGMACreateTable:
		if _, err := c.s.core.CreateTable(v.SQL); err != nil {
			c.send(errFrame(v.Seq, err))
			return
		}
		c.send(wire.RGMAOK{Seq: v.Seq})
	case wire.RGMAProducerCreate:
		p, err := c.s.core.CreateProducer(v.Table,
			rgmacore.RetentionFromSeconds(v.LatestRetentionSec),
			rgmacore.RetentionFromSeconds(v.HistoryRetentionSec))
		if err != nil {
			c.send(errFrame(v.Seq, err))
			return
		}
		c.producers[p.ID()] = struct{}{}
		c.send(wire.RGMAOK{Seq: v.Seq, ID: p.ID()})
	case wire.RGMAInsert:
		applied := int64(0)
		for _, q := range v.SQLs {
			if err := c.s.core.Insert(v.Producer, q); err != nil {
				c.send(errFrame(v.Seq, err))
				return
			}
			applied++
		}
		c.send(wire.RGMAOK{Seq: v.Seq, ID: applied})
	case wire.RGMAConsumerCreate:
		qtype := rgma.QueryType(v.QType)
		var sink rgmacore.Sink
		switch qtype {
		case rgma.ContinuousQuery:
			sink = c.pushSink
		case rgma.LatestQuery, rgma.HistoryQuery:
		default:
			c.send(wire.RGMAErr{Seq: v.Seq, Code: CodeBadRequest, Msg: "rgmabin: unknown query type"})
			return
		}
		cn, err := c.s.core.CreateConsumer(v.Query, qtype, sink)
		if err != nil {
			c.send(errFrame(v.Seq, err))
			return
		}
		c.consumers[cn.ID()] = sink != nil
		c.send(wire.RGMAOK{Seq: v.Seq, ID: cn.ID()})
	case wire.RGMAPop:
		tuples, err := c.s.core.Pop(v.Consumer)
		if err != nil {
			c.send(errFrame(v.Seq, err))
			return
		}
		out := wire.RGMATuples{Seq: v.Seq, Consumer: v.Consumer, Tuples: make([]wire.RGMATuple, len(tuples))}
		for i, t := range tuples {
			out.Tuples[i] = wire.RGMATuple{Row: t.Row, InsertedAt: t.InsertedAt}
		}
		c.send(out)
	case wire.RGMAClose:
		var err error
		if v.Producer {
			err = c.s.core.CloseProducer(v.ID)
			delete(c.producers, v.ID)
		} else {
			err = c.s.core.CloseConsumer(v.ID)
			delete(c.consumers, v.ID)
		}
		if err != nil {
			c.send(errFrame(v.Seq, err))
			return
		}
		c.send(wire.RGMAOK{Seq: v.Seq})
	default:
		// Unknown or out-of-phase frame: ignore. The codec already
		// rejected malformed bodies.
	}
}
