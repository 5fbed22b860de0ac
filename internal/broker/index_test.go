package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for the subscription index: the indexed publish path must
// deliver what the naive oracle's linear scan predicts across publish /
// unsubscribe / durable interleavings.

// deliveredIDs extracts, per subscription, the ordered message IDs
// delivered on a connection.
func deliveredIDs(env *fakeEnv, c ConnID) map[int64][]string {
	out := make(map[int64][]string)
	for _, f := range env.sent[c] {
		if d, ok := f.(*wire.Deliver); ok {
			out[d.SubID] = append(out[d.SubID], d.Msg.ID)
		}
	}
	return out
}

func publishOn(b target, c ConnID, id string, dest message.Destination, props map[string]message.Value) {
	m := message.NewText("payload")
	m.ID = id
	m.Dest = dest
	for k, v := range props {
		m.SetProperty(k, v)
	}
	b.OnFrame(c, wire.Publish{Seq: 1, Msg: m})
}

func TestIndexSelectorGrouping(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("power")
	for i := ConnID(1); i <= 7; i++ {
		mustOpen(t, b, i)
	}
	// Three subscribers share one selector, two have no selector, one has
	// a constant-true selector (fast path), one a distinct selector.
	subscribe(t, b, env, 1, 10, topic, "id < 100")
	subscribe(t, b, env, 2, 20, topic, "id < 100")
	subscribe(t, b, env, 3, 30, topic, "id < 100")
	subscribe(t, b, env, 4, 40, topic, "")
	subscribe(t, b, env, 5, 50, topic, "1 = 1") // folds to constant TRUE
	subscribe(t, b, env, 6, 60, topic, "id >= 100")

	if got := b.TopicSubscribers("power"); got != 6 {
		t.Fatalf("TopicSubscribers = %d, want 6", got)
	}
	// Two distinct selector programs: "id < 100" and "id >= 100".
	if got := b.TopicSelectorGroups("power"); got != 2 {
		t.Fatalf("TopicSelectorGroups = %d, want 2", got)
	}

	publishOn(b, 7, "m1", topic, map[string]message.Value{"id": message.Int(5)})
	for _, c := range []ConnID{1, 2, 3, 4, 5} {
		if n := len(env.deliveries(c)); n != 1 {
			t.Fatalf("conn %d got %d deliveries, want 1", c, n)
		}
	}
	if n := len(env.deliveries(6)); n != 0 {
		t.Fatalf("conn 6 got %d deliveries, want 0", n)
	}
	// The whole "id >= 100" group was rejected with one evaluation.
	if got := b.Stats().SelectorRejected; got != 1 {
		t.Fatalf("SelectorRejected = %d, want 1", got)
	}

	publishOn(b, 7, "m2", topic, map[string]message.Value{"id": message.Int(500)})
	if n := len(env.deliveries(6)); n != 1 {
		t.Fatalf("conn 6 got %d deliveries, want 1", n)
	}
	// Now the three-member "id < 100" group was rejected: 1 + 3 = 4.
	if got := b.Stats().SelectorRejected; got != 4 {
		t.Fatalf("SelectorRejected = %d, want 4", got)
	}
}

func TestIndexUnsubscribeMaintainsGroups(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("power")
	interest := []string{}
	b.SetInterestFunc(func(name string, add bool) {
		interest = append(interest, fmt.Sprintf("%s:%v", name, add))
	})
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 10, topic, "id < 100")
	subscribe(t, b, env, 1, 11, topic, "id < 100")
	subscribe(t, b, env, 1, 12, topic, "")

	b.OnFrame(1, wire.Unsubscribe{SubID: 10})
	if got := b.TopicSubscribers("power"); got != 2 {
		t.Fatalf("after unsub: TopicSubscribers = %d, want 2", got)
	}
	if got := b.TopicSelectorGroups("power"); got != 1 {
		t.Fatalf("after unsub: groups = %d, want 1", got)
	}
	b.OnFrame(1, wire.Unsubscribe{SubID: 11})
	if got := b.TopicSelectorGroups("power"); got != 0 {
		t.Fatalf("after group drained: groups = %d, want 0", got)
	}
	// Remaining fast subscription still receives.
	publishOn(b, 2, "m1", topic, nil)
	if got := deliveredIDs(env, 1)[12]; !reflect.DeepEqual(got, []string{"m1"}) {
		t.Fatalf("fast sub deliveries = %v", got)
	}
	b.OnFrame(1, wire.Unsubscribe{SubID: 12})
	if want := []string{"power:true", "power:false"}; !reflect.DeepEqual(interest, want) {
		t.Fatalf("interest events = %v, want %v", interest, want)
	}
	if got := b.TopicSubscribers("power"); got != 0 {
		t.Fatalf("TopicSubscribers = %d, want 0", got)
	}
}

func TestIndexDurableReattach(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("grid")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	b.OnFrame(1, wire.Subscribe{SubID: 10, Dest: topic, Selector: "id < 100", Durable: true, DurableName: "d1"})

	// Live delivery while attached.
	publishOn(b, 2, "m1", topic, map[string]message.Value{"id": message.Int(1)})
	// Disconnect: durable buffers matching messages only.
	b.OnConnClose(1)
	publishOn(b, 2, "m2", topic, map[string]message.Value{"id": message.Int(2)})
	publishOn(b, 2, "m3", topic, map[string]message.Value{"id": message.Int(200)}) // rejected
	publishOn(b, 2, "m4", topic, map[string]message.Value{"id": message.Int(4)})

	// Reattach under a new connection: backlog drains in order.
	mustOpen(t, b, 3)
	b.OnFrame(3, wire.Subscribe{SubID: 30, Dest: topic, Selector: "id < 100", Durable: true, DurableName: "d1"})
	if got := deliveredIDs(env, 3)[30]; !reflect.DeepEqual(got, []string{"m2", "m4"}) {
		t.Fatalf("drained backlog = %v, want [m2 m4]", got)
	}

	// Changing the topic recreates the durable and reindexes it.
	b.OnConnClose(3)
	publishOn(b, 2, "m5", topic, map[string]message.Value{"id": message.Int(5)})
	mustOpen(t, b, 4)
	other := message.Topic("other")
	b.OnFrame(4, wire.Subscribe{SubID: 40, Dest: other, Selector: "id < 100", Durable: true, DurableName: "d1"})
	if got := len(deliveredIDs(env, 4)[40]); got != 0 {
		t.Fatalf("recreated durable drained %d stale messages", got)
	}
	b.OnConnClose(4)
	// Old-topic publishes no longer reach the durable; new-topic ones do.
	publishOn(b, 2, "m6", topic, map[string]message.Value{"id": message.Int(6)})
	publishOn(b, 2, "m7", other, map[string]message.Value{"id": message.Int(7)})
	mustOpen(t, b, 5)
	b.OnFrame(5, wire.Subscribe{SubID: 50, Dest: other, Selector: "id < 100", Durable: true, DurableName: "d1"})
	if got := deliveredIDs(env, 5)[50]; !reflect.DeepEqual(got, []string{"m7"}) {
		t.Fatalf("reindexed durable drained %v, want [m7]", got)
	}

	// Unsubscribe destroys the durable state entirely.
	b.OnFrame(5, wire.Unsubscribe{SubID: 50})
	publishOn(b, 2, "m8", other, map[string]message.Value{"id": message.Int(8)})
	mustOpen(t, b, 6)
	b.OnFrame(6, wire.Subscribe{SubID: 60, Dest: other, Selector: "id < 100", Durable: true, DurableName: "d1"})
	if got := len(deliveredIDs(env, 6)[60]); got != 0 {
		t.Fatalf("destroyed durable kept %d messages", got)
	}
	if b.PendingCount() == 0 && env.heap.Used() != pendingHeapUsed(b) {
		t.Fatalf("heap accounting drifted: used=%d", env.heap.Used())
	}
}

// pendingHeapUsed recomputes what the heap should hold for pending
// deliveries (the fake env has no other live allocations in these tests).
func pendingHeapUsed(b *Broker) int64 {
	var n int64
	for _, c := range b.sessions.conns {
		for _, sub := range c.subs {
			for _, pd := range sub.pending {
				n += pd.cost
			}
		}
	}
	return n
}

// TestIndexParityRandomized drives an identical randomized interleaving
// of subscribes, unsubscribes, durable attach/detach cycles and publishes
// through the broker and the oracle, then asserts the broker delivered,
// buffered and rejected exactly what the oracle predicts.
func TestIndexParityRandomized(t *testing.T) {
	selectors := []string{
		"", "TRUE", "1 = 1",
		"id < 50", "id >= 50", "id < 50", // duplicates exercise grouping
		"name LIKE 'gen-%'", "id BETWEEN 20 AND 60",
		"region IN ('us', 'eu') AND id < 80",
		"missing IS NULL AND id < 90",
	}
	for seed := int64(1); seed <= 5; seed++ {
		b, env := newBroker(t, 0)
		orc := newOracle()
		all := []target{b, orc}
		rng := rand.New(rand.NewSource(seed))

		const conns = 8
		var connIDs []ConnID
		for c := ConnID(1); c <= conns; c++ {
			connIDs = append(connIDs, c)
			for _, b := range all {
				if err := b.OnConnOpen(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		frame := func(c ConnID, f wire.Frame) {
			for _, b := range all {
				b.OnFrame(c, f)
			}
		}
		topics := []message.Destination{message.Topic("t1"), message.Topic("t2")}
		nextSub := int64(0)
		type subInfo struct {
			conn ConnID
			id   int64
		}
		var live []subInfo
		durableCycle := 0

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 3: // subscribe
				nextSub++
				c := ConnID(1 + rng.Intn(conns-1)) // conn 8 reserved for publishing
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     topics[rng.Intn(len(topics))],
					Selector: selectors[rng.Intn(len(selectors))],
				}
				frame(c, f)
				live = append(live, subInfo{conn: c, id: nextSub})
			case r < 4: // unsubscribe
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				s := live[i]
				live = append(live[:i], live[i+1:]...)
				frame(s.conn, wire.Unsubscribe{SubID: s.id})
			case r < 5: // durable attach / detach cycle via a dedicated conn
				durableCycle++
				nextSub++
				f := wire.Subscribe{
					SubID:       nextSub,
					Dest:        topics[durableCycle%len(topics)],
					Selector:    "id < 70",
					Durable:     true,
					DurableName: fmt.Sprintf("dur-%d", durableCycle%3),
				}
				c := ConnID(1 + rng.Intn(conns-1))
				frame(c, f)
				if rng.Intn(2) == 0 {
					frame(c, wire.Unsubscribe{SubID: nextSub})
				} else {
					live = append(live, subInfo{conn: c, id: nextSub})
				}
			default: // publish
				id := fmt.Sprintf("m%d", op)
				props := map[string]message.Value{
					"id":     message.Int(int32(rng.Intn(100))),
					"name":   message.String([]string{"gen-1", "probe-2"}[rng.Intn(2)]),
					"region": message.String([]string{"us", "eu", "ap"}[rng.Intn(3)]),
				}
				dest := topics[rng.Intn(len(topics))]
				for _, b := range all {
					publishOn(b, conns, id, dest, props)
				}
			}
		}

		orc.check(t, fmt.Sprintf("seed %d", seed), b, connIDs, env.observed)
	}
}
