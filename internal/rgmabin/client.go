package rgmabin

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/sqlmini"
	"gridmon/internal/wire"
)

// ServerError is a request failure reported by the server.
type ServerError struct {
	Code uint8
	Msg  string
}

func (e *ServerError) Error() string { return e.Msg }

// NotFound reports whether the server rejected the request for a
// missing resource or table.
func (e *ServerError) NotFound() bool { return e.Code == CodeNotFound }

// Conflict reports whether the server rejected the request for
// conflicting state (e.g. re-creating a table with a different schema).
func (e *ServerError) Conflict() bool { return e.Code == CodeConflict }

// PoppedTuple is one delivered tuple; cells are SQL literal forms (the
// same rendering the HTTP client's PoppedTuple carries).
type PoppedTuple struct {
	Row        []string
	InsertedAt int64
}

// consumerState serializes deliveries to one continuous consumer. The
// server may push tuples before the client has processed the RGMAOK
// that reveals the consumer's id; such early tuples are buffered in
// orphan and replayed to the callback, in order, when it registers.
type consumerState struct {
	mu     sync.Mutex
	cb     func([]PoppedTuple)
	orphan []PoppedTuple
}

// Client is a producer/consumer API over one persistent binary
// connection. It is safe for concurrent use: any number of requests may
// be outstanding (each tagged with a Seq), and continuous-query pushes
// are dispatched to per-consumer callbacks as they arrive.
//
// Callbacks run on the client's reader goroutine, serialized per
// consumer; a callback that blocks delays every stream and reply on the
// connection (and ultimately trips the server's slow-consumer drop), so
// callbacks should hand work off quickly.
type Client struct {
	nc net.Conn

	wmu  sync.Mutex // serializes frame writes; guards wbuf
	wbuf []byte

	seq atomic.Int64

	mu        sync.Mutex
	pending   map[int64]chan wire.Frame
	consumers map[int64]*consumerState
	err       error

	done     chan struct{}
	doneOnce sync.Once
}

// Dial connects and performs the RGMAHello/RGMAWelcome handshake.
func Dial(addr string) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// The handshake and the read loop share one reader: a push that
	// arrives in the same segment as the welcome must not be lost.
	f, fr, err := wire.Handshake(nc, wire.RGMAHello{ClientID: "rgmabin-client"}, 10*time.Second)
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("rgmabin: handshake: %w", err)
	}
	if _, ok := f.(wire.RGMAWelcome); !ok {
		_ = nc.Close()
		return nil, fmt.Errorf("rgmabin: unexpected handshake reply %v", f.Type())
	}
	c := &Client{
		nc:        nc,
		pending:   make(map[int64]chan wire.Frame),
		consumers: make(map[int64]*consumerState),
		done:      make(chan struct{}),
	}
	go c.readLoop(fr)
	return c, nil
}

// Close drops the connection; the server releases every resource this
// connection created.
func (c *Client) Close() error {
	return c.nc.Close()
}

func (c *Client) writeFrame(f wire.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrameBuf(c.nc, &c.wbuf, f)
}

func (c *Client) readLoop(fr *wire.FrameReader) {
	for {
		f, err := fr.Read()
		if err != nil {
			c.fail(err)
			return
		}
		switch v := f.(type) {
		case wire.RGMATuples:
			if v.Seq == 0 {
				c.deliver(v)
				continue
			}
			c.complete(v.Seq, v)
		case wire.RGMAOK:
			c.complete(v.Seq, v)
		case wire.RGMAErr:
			c.complete(v.Seq, v)
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
}

func (c *Client) complete(seq int64, f wire.Frame) {
	c.mu.Lock()
	ch := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if ch != nil {
		ch <- f
	}
}

func toPopped(ts []wire.RGMATuple) []PoppedTuple {
	out := make([]PoppedTuple, len(ts))
	for i, t := range ts {
		out[i] = PoppedTuple{Row: t.Row, InsertedAt: t.InsertedAt}
	}
	return out
}

// deliver routes one unsolicited push to its consumer's callback,
// buffering tuples that arrive before the consumer is registered.
func (c *Client) deliver(v wire.RGMATuples) {
	tuples := toPopped(v.Tuples)
	c.mu.Lock()
	cs := c.consumers[v.Consumer]
	if cs == nil {
		cs = &consumerState{}
		c.consumers[v.Consumer] = cs
	}
	c.mu.Unlock()
	cs.mu.Lock()
	if cs.cb == nil {
		cs.orphan = append(cs.orphan, tuples...)
	} else {
		cs.cb(tuples)
	}
	cs.mu.Unlock()
}

// request sends one Seq-tagged frame and blocks for its reply.
func (c *Client) request(build func(seq int64) wire.Frame) (wire.Frame, error) {
	seq := c.seq.Add(1)
	ch := make(chan wire.Frame, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[seq] = ch
	c.mu.Unlock()
	if err := c.writeFrame(build(seq)); err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case f := <-ch:
		return f, nil
	case <-c.done:
		// The reply may have been delivered in the same instant the
		// connection died; prefer it.
		select {
		case f := <-ch:
			return f, nil
		default:
		}
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
}

// replyID interprets an OK/Err reply.
func replyID(f wire.Frame) (int64, error) {
	switch v := f.(type) {
	case wire.RGMAOK:
		return v.ID, nil
	case wire.RGMAErr:
		return 0, &ServerError{Code: v.Code, Msg: v.Msg}
	}
	return 0, fmt.Errorf("rgmabin: unexpected reply %v", f.Type())
}

// CreateTable declares a table with a CREATE TABLE statement.
// Re-creating an identical schema is a no-op; a conflicting schema
// fails with a ServerError for which Conflict() is true.
func (c *Client) CreateTable(sql string) error {
	f, err := c.request(func(seq int64) wire.Frame {
		return wire.RGMACreateTable{Seq: seq, SQL: sql}
	})
	if err != nil {
		return err
	}
	_, err = replyID(f)
	return err
}

// RemoteProducer is a handle to a producer resource on the server.
type RemoteProducer struct {
	c  *Client
	ID int64
}

// CreatePrimaryProducer allocates a producer with memory storage.
// Retention periods are carried as whole seconds and rounded UP, so a
// sub-second request keeps a short retention (1 s) instead of
// truncating to 0 and silently selecting the server's 30 s/60 s
// defaults; non-positive periods are an error.
func (c *Client) CreatePrimaryProducer(table string, latestRetention, historyRetention time.Duration) (*RemoteProducer, error) {
	latestSec, err := rgmacore.RetentionSeconds(latestRetention)
	if err != nil {
		return nil, err
	}
	historySec, err := rgmacore.RetentionSeconds(historyRetention)
	if err != nil {
		return nil, err
	}
	f, err := c.request(func(seq int64) wire.Frame {
		return wire.RGMAProducerCreate{
			Seq:                 seq,
			Table:               table,
			LatestRetentionSec:  uint32(latestSec),
			HistoryRetentionSec: uint32(historySec),
		}
	})
	if err != nil {
		return nil, err
	}
	id, err := replyID(f)
	if err != nil {
		return nil, err
	}
	return &RemoteProducer{c: c, ID: id}, nil
}

// Insert publishes one tuple as a SQL INSERT statement.
func (p *RemoteProducer) Insert(sql string) error {
	return p.InsertBatch([]string{sql})
}

// InsertBatch publishes many INSERT statements in one frame — the
// binary transport's batching unit. The server applies them in order;
// on error, statements before the failing one remain applied.
func (p *RemoteProducer) InsertBatch(sqls []string) error {
	f, err := p.c.request(func(seq int64) wire.Frame {
		return wire.RGMAInsert{Seq: seq, Producer: p.ID, SQLs: sqls}
	})
	if err != nil {
		return err
	}
	_, err = replyID(f)
	return err
}

// InsertRow formats and publishes a row for the given table schema.
func (p *RemoteProducer) InsertRow(table *sqlmini.Table, row sqlmini.Row) error {
	return p.Insert(sqlmini.FormatInsert(table, row))
}

// Close releases the producer resource.
func (p *RemoteProducer) Close() error {
	f, err := p.c.request(func(seq int64) wire.Frame {
		return wire.RGMAClose{Seq: seq, Producer: true, ID: p.ID}
	})
	if err != nil {
		return err
	}
	_, err = replyID(f)
	return err
}

// RemoteConsumer is a handle to a consumer resource on the server.
type RemoteConsumer struct {
	c     *Client
	ID    int64
	qtype rgma.QueryType
}

// CreateConsumer installs a query; qtype is "continuous", "latest" or
// "history". A continuous consumer is push-fed: onTuples is required
// and receives every matching tuple batch as the server streams it (on
// the client's reader goroutine, serialized per consumer). Latest and
// history queries are request/response — onTuples must be nil and
// results are read with Pop.
func (c *Client) CreateConsumer(query, qtype string, onTuples func([]PoppedTuple)) (*RemoteConsumer, error) {
	qt, err := rgmacore.ParseQueryType(qtype)
	if err != nil {
		return nil, err
	}
	if qt == rgma.ContinuousQuery && onTuples == nil {
		return nil, fmt.Errorf("rgmabin: continuous consumers are push-fed; provide an onTuples callback")
	}
	if qt != rgma.ContinuousQuery && onTuples != nil {
		return nil, fmt.Errorf("rgmabin: %s queries are request/response; use Pop", qtype)
	}
	f, err := c.request(func(seq int64) wire.Frame {
		return wire.RGMAConsumerCreate{Seq: seq, Query: query, QType: uint8(qt)}
	})
	if err != nil {
		return nil, err
	}
	id, err := replyID(f)
	if err != nil {
		return nil, err
	}
	if qt == rgma.ContinuousQuery {
		c.mu.Lock()
		cs := c.consumers[id]
		if cs == nil {
			cs = &consumerState{}
			c.consumers[id] = cs
		}
		c.mu.Unlock()
		cs.mu.Lock()
		cs.cb = onTuples
		if len(cs.orphan) > 0 {
			// Tuples pushed before the create reply was processed:
			// replay in order, still under the consumer's lock so no
			// later push can overtake them.
			onTuples(cs.orphan)
			cs.orphan = nil
		}
		cs.mu.Unlock()
	}
	return &RemoteConsumer{c: c, ID: id, qtype: qt}, nil
}

// Pop reads a latest/history consumer. Continuous consumers over the
// binary transport are push-fed, and the server refuses to pop them.
func (rc *RemoteConsumer) Pop() ([]PoppedTuple, error) {
	f, err := rc.c.request(func(seq int64) wire.Frame {
		return wire.RGMAPop{Seq: seq, Consumer: rc.ID}
	})
	if err != nil {
		return nil, err
	}
	switch v := f.(type) {
	case wire.RGMATuples:
		return toPopped(v.Tuples), nil
	case wire.RGMAErr:
		return nil, &ServerError{Code: v.Code, Msg: v.Msg}
	}
	return nil, fmt.Errorf("rgmabin: unexpected pop reply %v", f.Type())
}

// Close releases the consumer resource; a continuous consumer's stream
// stops.
func (rc *RemoteConsumer) Close() error {
	f, err := rc.c.request(func(seq int64) wire.Frame {
		return wire.RGMAClose{Seq: seq, Producer: false, ID: rc.ID}
	})
	if err != nil {
		return err
	}
	if _, err = replyID(f); err != nil {
		return err
	}
	rc.c.mu.Lock()
	delete(rc.c.consumers, rc.ID)
	rc.c.mu.Unlock()
	return nil
}
