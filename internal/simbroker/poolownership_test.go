package simbroker

import (
	"fmt"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/sim"
	"gridmon/internal/simnet"
	"gridmon/internal/wire"
)

// The wire Deliver-frame pool requires consume-exactly-once ownership.
// The simulator cannot provide it: its transports carry frames by
// reference and the unreliable ones keep a frame queued for
// retransmission until acked or abandoned. NewHost therefore declares
// its Env serial and frame-retaining (broker.Config.SerialEnv), and
// these tests pin that ownership rule down.

func TestHostDeclaresSerialEnv(t *testing.T) {
	r := newRig(t)
	if !r.host.Broker().Config().SerialEnv {
		t.Fatal("simbroker host must set SerialEnv: its kernel is single-threaded " +
			"and retransmission may hold frames past delivery")
	}
}

// TestRetransmissionIntactUnderPoolChurn runs a lossy-transport workload
// whose deliveries are forced through the retransmission path while an
// in-process pool user (modelling e.g. a TCP broker sharing the process)
// continuously recycles Deliver frames through wire.GetDeliver /
// wire.PutDeliver. Every message that reaches the subscriber must carry
// its original, uncorrupted payload: if sim frames entered the pool, the
// churner would scribble over frames still queued for retransmission.
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
	// them, and return them. If a sim delivery frame were ever pooled
	// while a retransmission queue still held it, this would corrupt the
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
