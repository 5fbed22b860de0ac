package broker

import (
	"slices"
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
	b.routeMatchIndexed(stale, m, int64(m.EncodedSize())+memPerPendingOverhead, plan)
	b.execFanPlan(plan, m, 0)
	b.putFanPlan(plan)

	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap holds %d bytes after a stale-route publish to a destroyed durable, want 0", used)
	}
}

// TestDurableAttachWindowPublish: a publish that lands while a durable
// re-attaches — here from the interest callback, which fires inside the
// attach — is delivered, in order between the backlog and later
// publishes.
func TestDurableAttachWindowPublish(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("power")
	mustOpen(t, b, 1) // publisher
	mustOpen(t, b, 2)
	b.OnFrame(2, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	b.OnConnClose(2)
	publishOn(b, 1, "buffered", topic, nil)

	fired := false
	b.SetInterestFunc(func(name string, add bool) {
		if add && name == topic.Name && !fired {
			fired = true
			publishOn(b, 1, "window", topic, nil)
		}
	})
	mustOpen(t, b, 3)
	b.OnFrame(3, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	if !fired {
		t.Fatal("the interest callback did not fire during the attach")
	}
	publishOn(b, 1, "after", topic, nil)

	var got []string
	for _, d := range env.deliveries(3) {
		got = append(got, d.Msg.ID)
	}
	if want := []string{"buffered", "window", "after"}; !slices.Equal(got, want) {
		t.Fatalf("re-attached durable got %v (%d of 3), want %v", got, len(got), want)
	}
}

// TestStaleRouteDeliversToLiveDurable: a publish still holding a route
// from while a durable buffered, routed after the durable went live,
// reaches the live consumer instead of vanishing.
func TestStaleRouteDeliversToLiveDurable(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	b.OnConnClose(1)

	sh := b.shardFor(topic.Name)
	stale := sh.snap.Load().topics[topic.Name].route.Load()

	mustOpen(t, b, 2)
	b.OnFrame(2, wire.Subscribe{SubID: 2, Dest: topic, Durable: true, DurableName: "d1"})

	m := message.NewText("late")
	m.Dest = topic
	m = m.Freeze()
	plan := b.getFanPlan()
	b.routeMatchIndexed(stale, m, int64(m.EncodedSize())+memPerPendingOverhead, plan)
	b.execFanPlan(plan, m, 0)
	b.putFanPlan(plan)

	if got := env.deliveries(2); len(got) != 1 || got[0].Msg != m {
		t.Fatalf("live durable got %d deliveries of the stale-route publish, want 1", len(got))
	}
}
