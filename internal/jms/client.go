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
	waiters     map[waitKey]chan error
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

// waitKey names one outstanding request: a subscription id, a publish
// sequence number or a ping token, by the reply kind that completes it.
type waitKey struct {
	kind waitKind
	id   int64
}

type waitKind uint8

const (
	waitSubOK waitKind = iota
	waitPubAck
	waitPong
)

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
		waiters:   make(map[waitKey]chan error),
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
			if v.SubID < 0 {
				c.complete(waitKey{waitSubOK, -v.SubID}, ErrSubRejected)
			} else {
				c.complete(waitKey{waitSubOK, v.SubID}, nil)
			}
		case wire.PubAck:
			c.complete(waitKey{waitPubAck, v.Seq}, nil)
		case wire.Pong:
			c.complete(waitKey{waitPong, v.Token}, nil)
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
	for _, ch := range c.waiters {
		ch <- ErrClosed
	}
	clear(c.waiters)
	c.mu.Unlock()
	_ = c.conn.Close()
}

// request registers a waiter under key, sends f and blocks until the
// reply completes the waiter (nil, or ErrSubRejected), the connection
// dies (ErrClosed) or the timeout passes (ErrTimeout). A waiter that
// was never sent or timed out removes itself from the table.
func (c *Connection) request(key waitKey, f wire.Frame) error {
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.waiters[key] = ch
	c.mu.Unlock()
	if err := c.send(f); err != nil {
		c.complete(key, nil) // drops the waiter; nothing reads ch
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-time.After(c.timeout):
		c.complete(key, nil) // drops the waiter; nothing reads ch
		return ErrTimeout
	}
}

// complete hands err to the waiter under key, if it is still waiting,
// and removes it from the table.
func (c *Connection) complete(key waitKey, err error) {
	c.mu.Lock()
	ch := c.waiters[key]
	delete(c.waiters, key)
	c.mu.Unlock()
	if ch != nil {
		ch <- err
	}
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
	c.subs[id] = &subscription{id: id, listener: l, conn: c}
	mode := c.ackMode
	c.mu.Unlock()

	err := c.request(waitKey{waitSubOK, id}, wire.Subscribe{
		SubID: id, Dest: dest, Selector: selector,
		Durable: durable != "", DurableName: durable, AckMode: mode,
	})
	if err == nil {
		return id, nil
	}
	c.mu.Lock()
	delete(c.subs, id)
	c.mu.Unlock()
	if errors.Is(err, ErrSubRejected) {
		return 0, fmt.Errorf("%w: %q", ErrSubRejected, selector)
	}
	return 0, err
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
	return c.request(waitKey{waitPubAck, seq}, wire.Publish{Seq: seq, Msg: m})
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
	return c.request(waitKey{waitPong, tok}, wire.Ping{Token: tok})
}
