package simbroker

import (
	"fmt"

	"gridmon/internal/broker"
	"gridmon/internal/brokernet"
	"gridmon/internal/sim"
	"gridmon/internal/simnet"
	"gridmon/internal/simproc"
	"gridmon/internal/wire"
)

// Host runs one broker core on a simulated node. It implements broker.Env,
// charging every frame's CPU cost to the node's processor and backing the
// broker's memory accounting with the node's JVM heap (messages, session
// buffers) plus a separate native budget (thread stacks).
type Host struct {
	net   *simnet.Network
	k     *sim.Kernel
	node  *simnet.Node
	costs Costs

	b      *broker.Broker
	member *brokernet.Member

	native *simproc.Heap

	links    map[broker.ConnID]*hostLink
	nextConn broker.ConnID

	sampler *simproc.Sampler
}

type hostLink struct {
	conn *simnet.Conn
	port *simnet.Port // broker-side port
	tr   Transport
	rel  *relChan // non-nil for unreliable transports
}

// NewHost creates a broker on the given simulated node.
func NewHost(net *simnet.Network, node *simnet.Node, cfg broker.Config, costs Costs) *Host {
	h := &Host{
		net:    net,
		k:      net.Kernel(),
		node:   node,
		costs:  costs,
		native: simproc.NewHeap(node.Name()+"-native", costs.NativeBudget, 0),
		links:  make(map[broker.ConnID]*hostLink),
	}
	h.b = broker.New(h, cfg)
	return h
}

// Broker exposes the wrapped broker core.
func (h *Host) Broker() *broker.Broker { return h.b }

// Node returns the node the broker runs on.
func (h *Host) Node() *simnet.Node { return h.node }

// Member returns the broker-network member (nil unless JoinNetwork was
// called).
func (h *Host) Member() *brokernet.Member { return h.member }

// JoinNetwork makes the broker a member of a Distributed Broker Network
// with the given routing mode. Must be called before Peer.
func (h *Host) JoinNetwork(mode brokernet.RoutingMode) {
	if h.member != nil {
		panic("simbroker: JoinNetwork called twice")
	}
	h.member = brokernet.NewMember(h.b, mode)
}

// StartSampler begins vmstat-style sampling of the broker node.
func (h *Host) StartSampler(period sim.Time) *simproc.Sampler {
	h.sampler = simproc.NewSampler(h.k, h.node.CPU, h.node.Heap, period)
	return h.sampler
}

// Sampler returns the running sampler (nil before StartSampler).
func (h *Host) Sampler() *simproc.Sampler { return h.sampler }

// NativeUsed reports thread-stack budget consumption.
func (h *Host) NativeUsed() int64 { return h.native.Used() }

// --- broker.Env implementation ---

// Now implements broker.Env.
func (h *Host) Now() int64 { return int64(h.k.Now()) }

// Send implements broker.Env: outbound frames are serialized through the
// broker CPU (the dispatch thread) before hitting the wire.
//
// The simulated transports carry frames by reference, and an unreliable
// one keeps a frame queued for retransmission until it is acked or
// abandoned, so no pooled frame may enter them: the wire pool's rule is
// one consumer releasing once, when nothing else holds the frame. Send
// is that consumer. It copies a pooled *wire.Deliver into a value frame
// and releases it at once, and it expands a *wire.DeliverBatch into one
// value frame per entry, in entry order, each priced as its own send.
// The simulator beyond this point sees value frames only.
func (h *Host) Send(conn broker.ConnID, f wire.Frame) {
	switch v := f.(type) {
	case *wire.Deliver:
		d := *v
		wire.PutDeliver(v)
		h.send(conn, d)
	case *wire.DeliverBatch:
		for _, e := range v.Entries {
			h.send(conn, wire.Deliver{SubID: e.SubID, Tag: e.Tag, Msg: v.Msg})
		}
		wire.PutDeliverBatch(v)
	default:
		h.send(conn, f)
	}
}

func (h *Host) send(conn broker.ConnID, f wire.Frame) {
	l, ok := h.links[conn]
	if !ok {
		return
	}
	h.node.CPU.Submit(h.costs.brokerSendCost(f, l.tr), func() {
		if l.conn.Closed() {
			return
		}
		if l.rel != nil {
			l.rel.Send(f, nil)
		} else {
			l.port.Send(f, wire.Size(f))
		}
	})
}

// CloseConn implements broker.Env.
func (h *Host) CloseConn(conn broker.ConnID) {
	if l, ok := h.links[conn]; ok {
		l.conn.Close()
		delete(h.links, conn)
	}
}

// AllocConn implements broker.Env: one native thread stack plus session
// buffers on the heap. Either budget can refuse the connection.
func (h *Host) AllocConn() error {
	if err := h.native.Alloc(h.costs.NativePerConn); err != nil {
		return err
	}
	if err := h.node.Heap.Alloc(h.costs.HeapPerConn); err != nil {
		h.native.Free(h.costs.NativePerConn)
		return err
	}
	return nil
}

// FreeConn implements broker.Env.
func (h *Host) FreeConn() {
	h.native.Free(h.costs.NativePerConn)
	h.node.Heap.Free(h.costs.HeapPerConn)
}

// Alloc implements broker.Env (message heap).
func (h *Host) Alloc(n int64) error { return h.node.Heap.Alloc(n) }

// Free implements broker.Env.
func (h *Host) Free(n int64) { h.node.Heap.Free(n) }

// --- client admission ---

// Connect attaches a new client on clientNode to the broker over the
// given transport. Admission is synchronous: if the broker cannot afford
// the connection's thread stack it refuses (the generator sees a failed
// connect, as on the paper's testbed).
func (h *Host) Connect(clientNode *simnet.Node, tr Transport, clientID string) (*Client, error) {
	opts := simnet.LANOptions()
	o := tr.connOptions()
	opts.Reliable = o.reliable
	opts.LossProb = o.lossProb

	conn := h.net.Connect(clientNode, h.node, opts)
	h.nextConn++
	id := h.nextConn
	if err := h.b.OnConnOpen(id); err != nil {
		conn.Close()
		return nil, fmt.Errorf("simbroker: connect %s: %w", clientID, err)
	}

	l := &hostLink{conn: conn, port: conn.B(), tr: tr}
	h.links[id] = l
	brokerIn := func(f wire.Frame) {
		cost := h.costs.brokerRecvCost(f, h.b.Stats().Connections, tr)
		if p, ok := f.(wire.Publish); ok {
			subs := h.b.TopicSubscribers(p.Msg.Dest.Name)
			cost += sim.Time(subs) * h.costs.selectorCost(3)
		}
		h.node.CPU.Submit(cost, func() { h.b.OnFrame(id, f) })
	}
	if !tr.Reliable {
		l.rel = newRelChan(h.k, l.port, tr, brokerIn)
	} else {
		l.port.SetHandler(func(f simnet.Frame) {
			if wf, ok := f.Payload.(wire.Frame); ok {
				brokerIn(wf)
			}
		})
	}

	c := newClient(h.k, clientNode, conn.A(), tr, h.costs, clientID)
	c.sendFrame(wire.Connect{ClientID: clientID})
	return c, nil
}

// --- broker peering ---

// Peer links two broker hosts with a reliable LAN connection and
// registers them with each other's network members. Both hosts must have
// joined a network first.
func Peer(a, b *Host) {
	if a.member == nil || b.member == nil {
		panic("simbroker: Peer before JoinNetwork")
	}
	conn := a.net.Connect(a.node, b.node, simnet.LANOptions())
	pa, pb := conn.A(), conn.B()

	sendFrom := func(h *Host, port *simnet.Port) brokernet.LinkSender {
		return func(f wire.Frame) {
			// Forward-out is cheap: the message is already serialized.
			h.node.CPU.Submit(h.costs.ForwardOut, func() { port.Send(f, wire.Size(f)) })
		}
	}
	recvAt := func(h *Host, from string) simnet.Handler {
		return func(f simnet.Frame) {
			wf, ok := f.Payload.(wire.Frame)
			if !ok {
				return
			}
			cost := h.costs.BrokerSmallSend
			if _, fw := wf.(wire.BrokerForward); fw {
				cost = h.costs.ForwardIn + sim.Time(frameBytes(wf))*h.costs.BrokerPerByte
			}
			h.node.CPU.Submit(cost, func() { h.member.OnPeerFrame(from, wf) })
		}
	}

	pa.SetHandler(recvAt(a, b.b.ID()))
	pb.SetHandler(recvAt(b, a.b.ID()))
	a.member.AddPeer(b.b.ID(), sendFrom(a, pa))
	b.member.AddPeer(a.b.ID(), sendFrom(b, pb))
}
