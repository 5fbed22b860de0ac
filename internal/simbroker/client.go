package simbroker

import (
	"sort"

	"gridmon/internal/message"
	"gridmon/internal/sim"
	"gridmon/internal/simnet"
	"gridmon/internal/wire"
)

// Client is one simulated JMS client (a power generator's connection or a
// subscriber program) attached to a broker Host. All of its work —
// serializing publishes, deserializing deliveries, dispatching the
// listener — is charged to its own node's CPU, so 750 generators sharing
// a machine contend for that machine's processor exactly as the paper's
// generator threads did.
type Client struct {
	k     *sim.Kernel
	node  *simnet.Node
	port  *simnet.Port
	tr    Transport
	costs Costs
	id    string

	rel     *relChan
	nextSeq int64

	ackMode  message.AckMode
	ackBatch int
	ackBuf   map[int64][]int64 // subID -> tags awaiting a batched ack

	// Callbacks, all invoked after client-side CPU costs are paid.
	OnConnected func(brokerID string)
	OnSubOK     func(subID int64)
	OnPubAck    func(seq int64)
	OnDeliver   func(d wire.Deliver)
	OnPong      func(token int64)
	// OnSendLost fires when an unreliable transport abandons a frame
	// after its retry budget (counted by loss-rate experiments).
	OnSendLost func(f wire.Frame)

	published uint64
	received  uint64
}

func newClient(k *sim.Kernel, node *simnet.Node, port *simnet.Port, tr Transport, costs Costs, id string) *Client {
	c := &Client{
		k:        k,
		node:     node,
		port:     port,
		tr:       tr,
		costs:    costs,
		id:       id,
		ackMode:  message.AutoAck,
		ackBatch: 10,
		ackBuf:   make(map[int64][]int64),
	}
	if !tr.Reliable {
		c.rel = newRelChan(k, port, tr, c.clientIn)
	} else {
		port.SetHandler(func(f simnet.Frame) {
			if wf, ok := f.Payload.(wire.Frame); ok {
				c.clientIn(wf)
			}
		})
	}
	return c
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.id }

// Node returns the machine the client runs on.
func (c *Client) Node() *simnet.Node { return c.node }

// Published and Received report message counters.
func (c *Client) Published() uint64 { return c.published }

// Received reports how many deliveries reached the client's listener.
func (c *Client) Received() uint64 { return c.received }

// SetAckMode selects the JMS session acknowledgement mode. In AutoAck the
// client acknowledges each delivery as soon as the listener returns; in
// ClientAck it batches acknowledgements (ackBatch deliveries per Ack
// frame), as a CLIENT_ACKNOWLEDGE application typically does.
func (c *Client) SetAckMode(m message.AckMode) { c.ackMode = m }

// sendFrame pays the client-side CPU cost and transmits.
func (c *Client) sendFrame(f wire.Frame) {
	c.node.CPU.Submit(c.costs.clientSendCost(f, c.tr), func() {
		if c.rel != nil {
			c.rel.Send(f, func(ok bool) {
				if !ok && c.OnSendLost != nil {
					c.OnSendLost(f)
				}
			})
		} else {
			c.port.Send(f, wire.Size(f))
		}
	})
}

// Subscribe registers a subscription with the broker.
func (c *Client) Subscribe(subID int64, dest message.Destination, sel string) {
	c.sendFrame(wire.Subscribe{SubID: subID, Dest: dest, Selector: sel, AckMode: c.ackMode})
}

// SubscribeDurable registers a durable topic subscription.
func (c *Client) SubscribeDurable(subID int64, dest message.Destination, sel, durableName string) {
	c.sendFrame(wire.Subscribe{SubID: subID, Dest: dest, Selector: sel, Durable: true, DurableName: durableName, AckMode: c.ackMode})
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(subID int64) {
	c.sendFrame(wire.Unsubscribe{SubID: subID})
}

// Publish stamps and sends a message, returning its publish sequence
// number. The message's Timestamp is set to the current virtual time
// (the paper's "before_sending" instant).
func (c *Client) Publish(m *message.Message) int64 {
	c.nextSeq++
	m.Timestamp = int64(c.k.Now())
	if m.ID == "" {
		m.ID = wireMsgID(c.id, c.nextSeq)
	}
	c.published++
	c.sendFrame(wire.Publish{Seq: c.nextSeq, Msg: m})
	return c.nextSeq
}

// Ping sends a liveness probe.
func (c *Client) Ping(token int64) { c.sendFrame(wire.Ping{Token: token}) }

// CloseSession sends a graceful close.
func (c *Client) CloseSession() { c.sendFrame(wire.Close{}) }

func wireMsgID(clientID string, seq int64) string {
	// Compact deterministic id, e.g. "ID:gen-17/42".
	return "ID:" + clientID + "/" + itoa(seq)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// clientIn handles a frame after transport-level processing; CPU cost is
// charged before dispatch.
func (c *Client) clientIn(f wire.Frame) {
	c.node.CPU.Submit(c.costs.clientRecvCost(f, c.tr), func() {
		switch v := f.(type) {
		case wire.Connected:
			if c.OnConnected != nil {
				c.OnConnected(v.BrokerID)
			}
		case wire.SubOK:
			if c.OnSubOK != nil {
				c.OnSubOK(v.SubID)
			}
		case wire.PubAck:
			if c.OnPubAck != nil {
				c.OnPubAck(v.Seq)
			}
		case wire.Pong:
			if c.OnPong != nil {
				c.OnPong(v.Token)
			}
		case wire.Deliver:
			c.received++
			if c.OnDeliver != nil {
				c.OnDeliver(v)
			}
			c.acknowledge(v)
		}
	})
}

func (c *Client) acknowledge(d wire.Deliver) {
	switch c.ackMode {
	case message.ClientAck:
		c.ackBuf[d.SubID] = append(c.ackBuf[d.SubID], d.Tag)
		if len(c.ackBuf[d.SubID]) >= c.ackBatch {
			tags := c.ackBuf[d.SubID]
			c.ackBuf[d.SubID] = nil
			c.sendFrame(wire.Ack{SubID: d.SubID, Tags: tags})
		}
	default: // AutoAck, DupsOKAck
		c.sendFrame(wire.Ack{SubID: d.SubID, Tags: []int64{d.Tag}})
	}
}

// FlushAcks sends any batched acknowledgements immediately, in ascending
// subscription order so the simulation stays deterministic.
func (c *Client) FlushAcks() {
	ids := make([]int64, 0, len(c.ackBuf))
	for subID, tags := range c.ackBuf {
		if len(tags) > 0 {
			ids = append(ids, subID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, subID := range ids {
		tags := c.ackBuf[subID]
		c.ackBuf[subID] = nil
		c.sendFrame(wire.Ack{SubID: subID, Tags: tags})
	}
}
