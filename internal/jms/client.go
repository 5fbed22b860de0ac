package jms

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Errors returned by the client.
var (
	ErrClosed       = errors.New("jms: connection closed")
	ErrSubRejected  = errors.New("jms: subscription rejected (invalid selector?)")
	ErrTimeout      = errors.New("jms: request timed out")
	ErrNotConnected = errors.New("jms: handshake incomplete")
)

// MessageListener consumes asynchronously delivered messages, in the
// style of javax.jms.MessageListener.
type MessageListener func(m *message.Message)

// Connection is a client connection to a broker server. It is safe for
// concurrent use.
type Connection struct {
	conn net.Conn

	writeMu sync.Mutex
	wbuf    []byte // reusable encode buffer, guarded by writeMu

	mu          sync.Mutex
	brokerID    string
	connected   chan struct{}
	subs        map[int64]*subscription
	subOK       map[int64]chan bool
	pubAcks     map[int64]chan struct{}
	pongs       map[int64]chan struct{}
	closed      bool
	closeErr    error
	pendingTags []pendingTag // CLIENT-mode deliveries awaiting Acknowledge

	nextSub int64
	nextSeq int64
	nextTok int64

	timeout time.Duration
	ackMode message.AckMode
}

type subscription struct {
	id       int64
	listener MessageListener
	conn     *Connection
}

// Dial connects and performs the protocol handshake with a 10 s request
// timeout.
func Dial(addr string, clientID string) (*Connection, error) {
	return DialTimeout(addr, clientID, 10*time.Second)
}

// DialTimeout is Dial with an explicit request/handshake timeout.
func DialTimeout(addr string, clientID string, timeout time.Duration) (*Connection, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Connection{
		conn:      nc,
		connected: make(chan struct{}),
		subs:      make(map[int64]*subscription),
		subOK:     make(map[int64]chan bool),
		pubAcks:   make(map[int64]chan struct{}),
		pongs:     make(map[int64]chan struct{}),
		timeout:   timeout,
		ackMode:   message.AutoAck,
	}
	go c.readLoop()
	if err := c.send(wire.Connect{ClientID: clientID}); err != nil {
		_ = nc.Close()
		return nil, err
	}
	select {
	case <-c.connected:
		return c, nil
	case <-time.After(c.timeout):
		_ = nc.Close()
		return nil, ErrNotConnected
	}
}

// SetAckMode selects AUTO (default) or CLIENT acknowledgement. In CLIENT
// mode the application must call Acknowledge.
func (c *Connection) SetAckMode(m message.AckMode) {
	c.mu.Lock()
	c.ackMode = m
	c.mu.Unlock()
}

// BrokerID reports the broker's identifier from the handshake.
func (c *Connection) BrokerID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brokerID
}

func (c *Connection) send(f wire.Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return wire.WriteFrameBuf(c.conn, &c.wbuf, f)
}

func (c *Connection) readLoop() {
	fr := wire.NewFrameReader(c.conn)
	for {
		f, err := fr.Read()
		if err != nil {
			c.shutdown(err)
			return
		}
		switch v := f.(type) {
		case wire.Connected:
			c.mu.Lock()
			c.brokerID = v.BrokerID
			select {
			case <-c.connected:
			default:
				close(c.connected)
			}
			c.mu.Unlock()
		case wire.SubOK:
			id := v.SubID
			ok := true
			if id < 0 {
				id, ok = -id, false
			}
			c.mu.Lock()
			ch := c.subOK[id]
			delete(c.subOK, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- ok
			}
		case wire.PubAck:
			c.mu.Lock()
			ch := c.pubAcks[v.Seq]
			delete(c.pubAcks, v.Seq)
			c.mu.Unlock()
			if ch != nil {
				close(ch)
			}
		case wire.Pong:
			c.mu.Lock()
			ch := c.pongs[v.Token]
			delete(c.pongs, v.Token)
			c.mu.Unlock()
			if ch != nil {
				close(ch)
			}
		case wire.Deliver:
			c.mu.Lock()
			sub := c.subs[v.SubID]
			mode := c.ackMode
			c.mu.Unlock()
			if sub != nil && sub.listener != nil {
				sub.listener(v.Msg)
			}
			if mode == message.AutoAck || mode == message.DupsOKAck {
				_ = c.send(wire.Ack{SubID: v.SubID, Tags: []int64{v.Tag}})
			} else {
				c.mu.Lock()
				// CLIENT mode: remember tags for Acknowledge.
				c.pendingTags = append(c.pendingTags, pendingTag{sub: v.SubID, tag: v.Tag})
				c.mu.Unlock()
			}
		}
	}
}

type pendingTag struct {
	sub, tag int64
}

// Acknowledge acknowledges all deliveries received so far (CLIENT mode).
func (c *Connection) Acknowledge() error {
	c.mu.Lock()
	tags := c.pendingTags
	c.pendingTags = nil
	c.mu.Unlock()
	bySub := map[int64][]int64{}
	for _, pt := range tags {
		bySub[pt.sub] = append(bySub[pt.sub], pt.tag)
	}
	for sub, ts := range bySub {
		if err := c.send(wire.Ack{SubID: sub, Tags: ts}); err != nil {
			return err
		}
	}
	return nil
}

func (c *Connection) shutdown(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	for _, ch := range c.subOK {
		ch <- false
	}
	c.subOK = map[int64]chan bool{}
	for _, ch := range c.pubAcks {
		close(ch)
	}
	c.pubAcks = map[int64]chan struct{}{}
	c.mu.Unlock()
	_ = c.conn.Close()
}

// Close terminates the connection gracefully.
func (c *Connection) Close() error {
	_ = c.send(wire.Close{})
	c.shutdown(ErrClosed)
	return nil
}

// Subscribe registers a listener on a destination with an optional JMS
// selector, blocking until the broker confirms.
func (c *Connection) Subscribe(dest message.Destination, selector string, l MessageListener) (int64, error) {
	return c.subscribe(dest, selector, "", l)
}

// SubscribeDurable registers a durable topic subscription.
func (c *Connection) SubscribeDurable(dest message.Destination, selector, durableName string, l MessageListener) (int64, error) {
	return c.subscribe(dest, selector, durableName, l)
}

func (c *Connection) subscribe(dest message.Destination, selector, durable string, l MessageListener) (int64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	c.nextSub++
	id := c.nextSub
	ch := make(chan bool, 1)
	c.subOK[id] = ch
	c.subs[id] = &subscription{id: id, listener: l, conn: c}
	mode := c.ackMode
	c.mu.Unlock()

	err := c.send(wire.Subscribe{
		SubID: id, Dest: dest, Selector: selector,
		Durable: durable != "", DurableName: durable, AckMode: mode,
	})
	if err != nil {
		return 0, err
	}
	select {
	case ok := <-ch:
		if !ok {
			c.mu.Lock()
			delete(c.subs, id)
			c.mu.Unlock()
			return 0, fmt.Errorf("%w: %q", ErrSubRejected, selector)
		}
		return id, nil
	case <-time.After(c.timeout):
		return 0, ErrTimeout
	}
}

// Unsubscribe removes a subscription.
func (c *Connection) Unsubscribe(subID int64) error {
	c.mu.Lock()
	delete(c.subs, subID)
	c.mu.Unlock()
	return c.send(wire.Unsubscribe{SubID: subID})
}

// Publish sends a message without waiting for the broker (JMS
// NON_PERSISTENT semantics).
func (c *Connection) Publish(m *message.Message) error {
	seq := atomic.AddInt64(&c.nextSeq, 1)
	c.stamp(m, seq)
	return c.send(wire.Publish{Seq: seq, Msg: m})
}

// PublishSync sends a message and waits for the broker's acknowledgement
// (PERSISTENT-style confirmation).
func (c *Connection) PublishSync(m *message.Message) error {
	seq := atomic.AddInt64(&c.nextSeq, 1)
	c.stamp(m, seq)
	ch := make(chan struct{})
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pubAcks[seq] = ch
	c.mu.Unlock()
	if err := c.send(wire.Publish{Seq: seq, Msg: m}); err != nil {
		return err
	}
	select {
	case <-ch:
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	case <-time.After(c.timeout):
		return ErrTimeout
	}
}

func (c *Connection) stamp(m *message.Message, seq int64) {
	m.Timestamp = time.Now().UnixNano()
	if m.ID == "" {
		m.ID = fmt.Sprintf("ID:%p/%d", c, seq)
	}
}

// Ping round-trips a liveness probe.
func (c *Connection) Ping() error {
	tok := atomic.AddInt64(&c.nextTok, 1)
	ch := make(chan struct{})
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pongs[tok] = ch
	c.mu.Unlock()
	if err := c.send(wire.Ping{Token: tok}); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-time.After(c.timeout):
		return ErrTimeout
	}
}
