package broker

import (
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// publishOnSubOK is a fakeEnv that, when conn sub's first positive
// SubOK is sent, synchronously publishes one message from conn pub: the
// publish lands in the window between the reply and whatever the
// subscribe path does after it.
type publishOnSubOK struct {
	*fakeEnv
	b        *Broker
	sub, pub ConnID
	dest     message.Destination
	fired    bool
}

func (e *publishOnSubOK) Send(c ConnID, f wire.Frame) {
	e.fakeEnv.Send(c, f)
	if ok, isOK := f.(wire.SubOK); isOK && ok.SubID > 0 && c == e.sub && !e.fired {
		e.fired = true
		pub(e.b, e.pub, e.dest, map[string]message.Value{"id": message.Int(7)})
	}
}

// TestSubOKPromisesDelivery: a publish that runs the moment SubOK is
// sent is delivered — the route is republished before the reply, for
// plain and selector subscriptions and for a durable's first attach.
func TestSubOKPromisesDelivery(t *testing.T) {
	for _, tc := range []struct {
		name, sel, durable string
	}{
		{name: "no selector"},
		{name: "selector", sel: "id < 10000"},
		{name: "durable", durable: "d1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topic := message.Topic("power")
			env := &publishOnSubOK{fakeEnv: newFakeEnv(0), sub: 2, pub: 1, dest: topic}
			b := New(env, DefaultConfig("b1"))
			env.b = b
			mustOpen(t, b, 1)
			mustOpen(t, b, 2)
			b.OnFrame(2, wire.Subscribe{SubID: 5, Dest: topic, Selector: tc.sel,
				Durable: tc.durable != "", DurableName: tc.durable})
			if !env.fired {
				t.Fatalf("no SubOK sent: %v", env.sent[2])
			}
			pub(b, 1, topic, map[string]message.Value{"id": message.Int(8)})
			if got := len(env.deliveries(2)); got != 2 {
				t.Fatalf("subscriber got %d of 2 messages; the one published at SubOK was lost", got)
			}
		})
	}
}

// TestStaleRouteSkipsDestroyedDurable: a publish still holding a route
// from while a durable buffered must not store into it once unsubscribe
// has destroyed it — nothing would ever free that backlog.
func TestStaleRouteSkipsDestroyedDurable(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	b.OnConnClose(1) // the durable now buffers, through its route slot

	sh := b.shardFor(topic.Name)
	stale := sh.snap.Load().topics[topic.Name].route.Load()

	mustOpen(t, b, 2)
	b.OnFrame(2, wire.Subscribe{SubID: 2, Dest: topic, Durable: true, DurableName: "d1"})
	b.OnFrame(2, wire.Unsubscribe{SubID: 2}) // destroys the durable

	m := message.NewText("late")
	m.Dest = topic
	m = m.Freeze()
	plan := b.getFanPlan()
	b.routeMatchIndexed(stale, m, int64(m.EncodedSize())+b.cfg.MemPerPendingOverhead, plan)
	b.execFanPlan(plan, m, 0)
	b.putFanPlan(plan)

	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap holds %d bytes after a stale-route publish to a destroyed durable, want 0", used)
	}
}
