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
// against the shard-safe core inline) and one wire.FrameWriter, the
// coalescing writer internal/jms runs too, which merges queue-adjacent
// pushes for one consumer into one RGMATuples frame. Requests on one
// connection are executed in arrival order; pushes for one consumer
// arrive in the producer's insert order (the core fans out under the
// table shard's read lock and the writer preserves queue order). A push
// may overtake the RGMAOK of the consumer-create that subscribed it; the
// client buffers such early tuples and replays them in order.
//
// # Slow consumers
//
// The writer queue is bounded (Config.WriteBuffer). A connection whose
// queue overflows — a consumer not draining its TCP socket — is dropped
// (the R-GMA analogue of the broker's slow-consumer policy): the socket
// is closed, the reader observes the error on its own goroutine and
// releases the connection's producers and consumers in the core. Sinks
// never block an inserting producer. SlowConsumerDrops counts each
// dropped connection once, however many sends found its queue full.
package rgmabin

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/wal"
	"gridmon/internal/wire"
)

// RGMAErr codes.
const (
	CodeBadRequest uint8 = iota + 1
	CodeNotFound
	CodeConflict
)

// Config tunes the binary server.
type Config struct {
	// ServerID is announced in the RGMAWelcome handshake ("rgmad" if
	// empty).
	ServerID string
	// WriteBuffer is the per-connection outbound frame queue (default
	// 1024); overflow drops the connection (slow-consumer policy).
	WriteBuffer int
}

// Server accepts binary R-GMA connections against a shared core.
type Server struct {
	core *rgmacore.Core
	cfg  Config
	ln   net.Listener

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool

	// teardown counts the accept loop and every reader; Close waits for
	// it. A reader's Add runs under mu before closed is set.
	teardown sync.WaitGroup

	walStats atomic.Pointer[func() wal.Stats]
	egress   wire.EgressMeters
}

// EgressStats reports the connection writers' egress counters.
func (s *Server) EgressStats() wire.EgressStats { return s.egress.Stats() }

// NewServer wraps a core (possibly shared with an rgmahttp.Server) in
// an unstarted binary server.
func NewServer(core *rgmacore.Core, cfg Config) *Server {
	if cfg.ServerID == "" {
		cfg.ServerID = "rgmad"
	}
	if cfg.WriteBuffer <= 0 {
		cfg.WriteBuffer = 1024
	}
	return &Server{core: core, cfg: cfg, conns: make(map[*serverConn]struct{})}
}

// Core returns the server's service core.
func (s *Server) Core() *rgmacore.Core { return s.core }

// SlowConsumerDrops reports connections dropped for a full write queue.
func (s *Server) SlowConsumerDrops() uint64 { return s.EgressStats().SlowConsumerDrops }

// SetWALStats installs the write-ahead-log counter source reported by
// the stats RPC (cmd/rgmad wires the persister's Stats method in when
// it runs with -data-dir). Without one, replies carry WALEnabled false
// and zero WAL counters.
func (s *Server) SetWALStats(f func() wal.Stats) {
	if f == nil {
		s.walStats.Store(nil)
		return
	}
	s.walStats.Store(&f)
}

// statsFrame snapshots the core and WAL counters into a reply frame.
func (s *Server) statsFrame(seq int64) wire.RGMAStats {
	cs := s.core.StatsSnapshot()
	out := wire.RGMAStats{
		Seq:            seq,
		Producers:      uint32(cs.Producers),
		Consumers:      uint32(cs.Consumers),
		Inserts:        cs.Inserts,
		Pops:           cs.Pops,
		TuplesStreamed: cs.TuplesStreamed,
		TuplesPopped:   cs.TuplesPopped,
		TuplesDropped:  cs.TuplesDropped,
	}
	if f := s.walStats.Load(); f != nil {
		ws := (*f)()
		out.WALEnabled = true
		out.WALRecordsAppended = ws.RecordsAppended
		out.WALBytesLogged = ws.BytesLogged
		out.WALFsyncs = ws.Fsyncs
		out.WALSnapshots = ws.Snapshots
		out.WALReplayRecords = ws.ReplayRecords
		out.WALReplayTruncatedTail = ws.ReplayTruncatedTail
		out.WALCleanStart = ws.CleanStart
	}
	return out
}

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
			w:         wire.NewFrameWriter(nc, s.cfg.WriteBuffer, &s.egress),
			producers: make(map[int64]struct{}),
			consumers: make(map[int64]struct{}),
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
// request and released its producers and consumers, so the core is
// quiescent and a persister may dump it at once.
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
// consumers in the fan-out index). The resource maps are touched only
// by the reader goroutine.
type serverConn struct {
	s  *Server
	nc net.Conn
	w  *wire.FrameWriter

	producers map[int64]struct{}
	consumers map[int64]struct{}
}

// send enqueues a frame without blocking (core fan-out calls it under a
// table shard's read lock). A full queue means the peer is not draining
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
	c.send(wire.RGMAWelcome{ServerID: c.s.cfg.ServerID})
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
// it releases the connection's core resources — unsubscribing any
// push-fed consumers from the fan-out index — stops the writer and
// forgets the connection.
func (c *serverConn) teardown() {
	_ = c.nc.Close()
	c.w.Stop()
	for id := range c.producers {
		_ = c.s.core.CloseProducer(id)
	}
	for id := range c.consumers {
		_ = c.s.core.CloseConsumer(id)
	}
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
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
		c.consumers[cn.ID()] = struct{}{}
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
	case wire.RGMAStatsReq:
		c.send(c.s.statsFrame(v.Seq))
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
