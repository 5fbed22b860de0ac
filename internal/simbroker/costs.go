// Package simbroker binds the sans-I/O broker core to the discrete-event
// simulator: it hosts brokers on simnet nodes, charges virtual CPU time
// for every frame according to a calibrated cost model, models the JVM's
// split memory budget (heap for messages and sessions, native for thread
// stacks), and emulates the three transport profiles of the paper's
// comparison tests — blocking TCP, non-blocking NIO, and JMS-over-UDP with
// its acknowledgement/retransmission dance.
package simbroker

import (
	"gridmon/internal/message"
	"gridmon/internal/sim"
	"gridmon/internal/wire"
)

// Costs is the CPU cost model, calibrated so the paper's workload lands in
// the paper's RTT regime on the reference (Pentium III 866 MHz) node:
// single-digit milliseconds per message through the broker, saturating
// around 3000–4000 connections at the paper's 0.1 msg/s per generator.
// All costs are virtual CPU time on a speed-1.0 node.
type Costs struct {
	// BrokerFrameBase is charged for every inbound client frame.
	BrokerFrameBase sim.Time
	// BrokerPerByte is charged per payload byte on publish-path frames
	// (serialization, copying, GC pressure).
	BrokerPerByte sim.Time
	// BrokerDeliverBase is charged for every outbound Deliver frame.
	BrokerDeliverBase sim.Time
	// BrokerSmallSend is charged for outbound control frames.
	BrokerSmallSend sim.Time
	// BrokerAck is charged for every inbound Ack frame.
	BrokerAck sim.Time
	// BrokerSelectorNode is charged per selector AST node per match test.
	BrokerSelectorNode sim.Time
	// BrokerPerConnScan models thread-per-connection scheduling overhead:
	// it is charged per inbound data frame, multiplied by the number of
	// open connections. This is what separates the paper's "80
	// connections at 10x rate" test from the 800-connection baseline.
	BrokerPerConnScan sim.Time
	// ForwardOut / ForwardIn are charged per inter-broker frame.
	ForwardOut sim.Time
	ForwardIn  sim.Time

	// Client-side costs.
	ClientSendBase sim.Time
	ClientRecvBase sim.Time
	ClientPerByte  sim.Time
	ClientSmall    sim.Time

	// Memory model.
	HeapPerConn   int64 // session + socket buffers on the JVM heap
	NativePerConn int64 // thread stack outside the heap
	NativeBudget  int64 // address space available for thread stacks
}

// DefaultCosts returns the calibrated model for the paper's testbed.
func DefaultCosts() Costs {
	return Costs{
		BrokerFrameBase:    400 * sim.Microsecond,
		BrokerPerByte:      1500 * sim.Nanosecond,
		BrokerDeliverBase:  500 * sim.Microsecond,
		BrokerSmallSend:    60 * sim.Microsecond,
		BrokerAck:          250 * sim.Microsecond,
		BrokerSelectorNode: 4 * sim.Microsecond,
		BrokerPerConnScan:  150 * sim.Nanosecond,
		ForwardOut:         150 * sim.Microsecond,
		ForwardIn:          700 * sim.Microsecond,

		ClientSendBase: 200 * sim.Microsecond,
		ClientRecvBase: 200 * sim.Microsecond,
		ClientPerByte:  800 * sim.Nanosecond,
		ClientSmall:    40 * sim.Microsecond,

		HeapPerConn:   96 << 10,
		NativePerConn: 256 << 10,
		NativeBudget:  960 << 20,
	}
}

// frameBytes reports how many payload bytes a frame carries (for per-byte
// cost purposes; control frames count as zero).
func frameBytes(f wire.Frame) int {
	switch v := f.(type) {
	case wire.Publish:
		return v.Msg.EncodedSize()
	case wire.Deliver:
		return v.Msg.EncodedSize()
	case wire.BrokerForward:
		return v.Msg.EncodedSize()
	}
	return 0
}

// brokerRecvCost prices an inbound frame at the broker, given the current
// connection count and the transport's per-data-frame overhead.
func (c Costs) brokerRecvCost(f wire.Frame, conns int, tr Transport) sim.Time {
	switch f.(type) {
	case wire.Publish:
		return c.BrokerFrameBase +
			sim.Time(frameBytes(f))*c.BrokerPerByte +
			sim.Time(conns)*c.BrokerPerConnScan +
			tr.DataOverhead
	case wire.Ack:
		return c.BrokerAck
	default:
		return c.BrokerFrameBase
	}
}

// brokerSendCost prices an outbound frame at the broker.
func (c Costs) brokerSendCost(f wire.Frame, tr Transport) sim.Time {
	switch f.(type) {
	case wire.Deliver:
		return c.BrokerDeliverBase + sim.Time(frameBytes(f))*c.BrokerPerByte + tr.DataOverhead
	default:
		return c.BrokerSmallSend
	}
}

// clientSendCost prices frame submission on the client node.
func (c Costs) clientSendCost(f wire.Frame, tr Transport) sim.Time {
	if _, ok := f.(wire.Publish); ok {
		return c.ClientSendBase + sim.Time(frameBytes(f))*c.ClientPerByte + tr.DataOverhead
	}
	return c.ClientSmall
}

// clientRecvCost prices frame reception on the client node.
func (c Costs) clientRecvCost(f wire.Frame, tr Transport) sim.Time {
	switch f.(type) {
	case wire.Deliver:
		return c.ClientRecvBase + sim.Time(frameBytes(f))*c.ClientPerByte + tr.DataOverhead
	}
	return c.ClientSmall
}

// selectorCost prices one selector evaluation.
func (c Costs) selectorCost(complexity int) sim.Time {
	return sim.Time(complexity) * c.BrokerSelectorNode
}

// DeliverRecvCost reports the client-side cost of receiving one message —
// the subscribing response time in the paper's decomposition (fig. 15).
func (c Costs) DeliverRecvCost(m *message.Message, tr Transport) sim.Time {
	return c.clientRecvCost(wire.Deliver{Msg: m}, tr)
}

// Transport is a NaradaBrokering transport profile (the paper's §III.E.1
// comparison dimension).
type Transport struct {
	Name string
	// Reliable transports (TCP, NIO) never lose frames and need no
	// application-level acknowledgement dance.
	Reliable bool
	// LossProb is the per-datagram loss probability for unreliable
	// transports.
	LossProb float64
	// AckTimeout and MaxRetries drive the datagram retransmission state
	// machine for unreliable transports.
	AckTimeout sim.Time
	MaxRetries int
	// DataOverhead is extra CPU charged per data frame on both ends:
	// NIO's selector/buffer management, or UDP's JMS acknowledgement
	// bookkeeping (the mechanism the paper blames for UDP's
	// "surprisingly high" RTT).
	DataOverhead sim.Time
}

// TCP is the blocking TCP transport, the paper's recommendation.
func TCP() Transport {
	return Transport{Name: "TCP", Reliable: true}
}

// NIO is non-blocking TCP; the paper measured it slightly slower than
// blocking TCP for this workload.
func NIO() Transport {
	return Transport{Name: "NIO", Reliable: true, DataOverhead: 500 * sim.Microsecond}
}

// UDP carries JMS over datagrams: per-message acknowledgement state, a
// retransmission timer, and residual loss after retries (the paper's test
// 1 lost 0.06% of messages).
func UDP() Transport {
	return Transport{
		Name:         "UDP",
		LossProb:     0.017,
		AckTimeout:   120 * sim.Millisecond,
		MaxRetries:   1,
		DataOverhead: 1800 * sim.Microsecond,
	}
}

// UDPClientAck is the paper's "UDP CLI" variant: CLIENT_ACKNOWLEDGE
// sessions batch JMS acks, which measured marginally slower RTT but half
// the loss (0.03%).
func UDPClientAck() Transport {
	return Transport{
		Name:         "UDP CLI",
		LossProb:     0.012,
		AckTimeout:   120 * sim.Millisecond,
		MaxRetries:   1,
		DataOverhead: 2000 * sim.Microsecond,
	}
}

// connOptions maps a transport onto simnet connection options for the
// Hydra LAN.
func (t Transport) connOptions() simnetOpts {
	return simnetOpts{reliable: t.Reliable, lossProb: t.LossProb}
}

type simnetOpts struct {
	reliable bool
	lossProb float64
}

// TriplePayload expands a map-message workload payload by a factor of
// three, the paper's test 5. It clones the message and duplicates every
// map entry twice more under suffixed names.
func TriplePayload(m *message.Message) *message.Message {
	out := m.Clone()
	if m.BodyKind() != message.MapBody {
		return out
	}
	for _, e := range m.MapEntries() {
		out.MapSet(e.Name+"_2", e.Val)
		out.MapSet(e.Name+"_3", e.Val)
	}
	return out
}
