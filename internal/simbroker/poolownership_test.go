package simbroker

import (
	"fmt"
	"slices"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/sim"
	"gridmon/internal/simnet"
	"gridmon/internal/wire"
)

// The wire frame pools require consume-exactly-once ownership, which
// the simulator's transports cannot keep: they carry frames by
// reference, and the unreliable ones keep a frame queued for
// retransmission until acked or abandoned. Host.Send is therefore the
// pooled frames' one consumer: it copies them into value frames and
// releases them at once. These tests pin that ownership rule down.

// TestBatchedFanoutDeliversPerSubscription publishes to more
// subscriptions than the broker's batching threshold, spread over
// connections of which most hold several matching subscriptions, so
// the broker emits pooled DeliverBatch runs (and pooled single Deliver
// frames for the one-subscription connections). Every subscription must
// receive every message exactly once, in publish order, and both wire
// pools must balance once the run is over.
func TestBatchedFanoutDeliversPerSubscription(t *testing.T) {
	dg0, dp0 := wire.DeliverPoolCounters()
	bg0, bp0 := wire.DeliverBatchPoolCounters()

	r := newRig(t)
	pub, err := r.host.Connect(r.client, TCP(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	// Connection i holds i+1 matching subscriptions (1+2+…+11 = 66) and
	// one that filters every message out.
	const conns, total = 11, 20
	type key struct{ conn, sub int64 }
	got := map[key][]int64{}
	for i := range int64(conns) {
		tr := TCP()
		if i%2 == 1 {
			tr = NIO()
		}
		c, err := r.host.Connect(r.client, tr, fmt.Sprintf("sub%d", i))
		if err != nil {
			t.Fatal(err)
		}
		c.OnDeliver = func(d wire.Deliver) {
			v, _ := d.Msg.Property("n")
			n, _ := v.AsLong()
			got[key{i, d.SubID}] = append(got[key{i, d.SubID}], n)
		}
		for s := int64(1); s <= i+1; s++ {
			c.Subscribe(s, message.Topic("power"), "id < 100")
		}
		c.Subscribe(99, message.Topic("power"), "id > 100")
	}
	for n := range int32(total) {
		r.k.After(sim.Second+sim.Time(n)*100*sim.Millisecond, func() {
			m := paperMsg("power")
			m.SetProperty("n", message.Int(n))
			pub.Publish(m)
		})
	}
	r.k.Run()

	want := make([]int64, total)
	for n := range want {
		want[n] = int64(n)
	}
	if len(got) != conns*(conns+1)/2 {
		t.Fatalf("%d subscriptions received deliveries, want %d", len(got), conns*(conns+1)/2)
	}
	for k, ns := range got {
		if !slices.Equal(ns, want) {
			t.Fatalf("conn %d sub %d received %v, want %v", k.conn, k.sub, ns, want)
		}
	}
	st := r.host.Broker().Stats()
	if st.EgressFlushes != uint64((conns-1)*total) {
		t.Fatalf("%d batched runs, want one per multi-subscription connection per publish (%d)", st.EgressFlushes, (conns-1)*total)
	}
	if got := r.host.Broker().PendingCount(); got != 0 {
		t.Fatalf("pending after auto-ack = %d", got)
	}
	dg1, dp1 := wire.DeliverPoolCounters()
	bg1, bp1 := wire.DeliverBatchPoolCounters()
	if dg1-dg0 != dp1-dp0 || dg1 == dg0 {
		t.Fatalf("Deliver pool: %d gets, %d puts", dg1-dg0, dp1-dp0)
	}
	if bg1-bg0 != bp1-bp0 || bg1 == bg0 {
		t.Fatalf("DeliverBatch pool: %d gets, %d puts", bg1-bg0, bp1-bp0)
	}
}

// TestRetransmissionIntactUnderPoolChurn runs a lossy-transport workload
// whose deliveries are forced through the retransmission path while an
// in-process pool user (modelling e.g. a TCP broker sharing the process)
// continuously recycles Deliver frames through wire.GetDeliver /
// wire.PutDeliver. The broker's pooled frames reach Host.Send, which
// releases them at once. Every message that reaches the subscriber must
// carry its original, uncorrupted payload: if the retransmission queue
// held a pooled frame instead of the host's copy, the churner would
// scribble over it.
func TestRetransmissionIntactUnderPoolChurn(t *testing.T) {
	k := sim.New(42)
	net := simnet.New(k)
	bn := net.AddNode("broker", simnet.HydraNode())
	cn := net.AddNode("client1", simnet.HydraNode())
	host := NewHost(net, bn, broker.DefaultConfig("broker"), DefaultCosts())

	// Heavy loss with a deep retry budget: many deliveries retransmit at
	// least once, none are abandoned.
	tr := Transport{
		Name:       "lossy",
		LossProb:   0.4,
		AckTimeout: 50 * sim.Millisecond,
		MaxRetries: 10,
	}
	sub, err := host.Connect(cn, tr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := host.Connect(cn, tr, "pub")
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]int64{} // frame's message ID -> its payload counter
	sub.OnDeliver = func(d wire.Deliver) {
		v, _ := d.Msg.Property("n")
		n, _ := v.AsLong()
		got[d.Msg.ID] = n
	}
	sub.Subscribe(1, message.Topic("power"), "")

	// Pool churner: every virtual millisecond, grab frames, scribble on
	// them, and return them. If a pooled frame were ever released while
	// a retransmission queue still held it, this would corrupt the
	// retransmitted copy.
	ticker := k.Every(sim.Millisecond, sim.Millisecond, func() {
		for i := 0; i < 8; i++ {
			d := wire.GetDeliver()
			d.SubID, d.Tag, d.Msg = -999, -999, nil
			wire.PutDeliver(d)
		}
	})

	const total = 50
	for i := 0; i < total; i++ {
		m := paperMsg("power")
		m.ID = fmt.Sprintf("ID:pool/%d", i)
		m.SetProperty("n", message.Int(int32(i)))
		pub.Publish(m)
	}
	k.RunUntil(30 * sim.Second)
	ticker.Stop()
	k.Run() // drain whatever the ticker no longer feeds

	if len(got) < total/2 {
		t.Fatalf("only %d of %d deliveries survived the lossy transport", len(got), total)
	}
	for id, n := range got {
		if want := fmt.Sprintf("ID:pool/%d", n); id != want {
			t.Fatalf("delivery corrupted: payload %d inside frame %q", n, id)
		}
	}
	// The broker-side channel of the subscriber link carries deliveries;
	// the workload must actually have exercised its retransmission path.
	_, _, retransmits, abandoned, _ := host.links[1].rel.Stats()
	if retransmits == 0 {
		t.Fatal("workload never exercised retransmission; loss model broken")
	}
	if abandoned != 0 {
		t.Fatalf("%d deliveries abandoned despite deep retry budget", abandoned)
	}
}
