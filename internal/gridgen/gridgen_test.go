package gridgen

import (
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/sim"
	"gridmon/internal/simbroker"
	"gridmon/internal/simnet"
)

func TestMonitoringMessageFieldMix(t *testing.T) {
	m := MonitoringMessage(42, 7)
	counts := map[message.Kind]int{}
	for _, e := range m.MapEntries() {
		counts[e.Val.Kind()]++
	}
	// The paper: two integer, five float, two long, three double, four
	// string values.
	want := map[message.Kind]int{
		message.KindInt:    2,
		message.KindFloat:  5,
		message.KindLong:   2,
		message.KindDouble: 3,
		message.KindString: 4,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%v count = %d, want %d", k, counts[k], n)
		}
	}
	if v, ok := m.Property("id"); !ok || !v.Equal(message.Int(42)) {
		t.Fatal("selector property 'id' missing")
	}
	// The paper's selector must accept it.
	if v, _ := m.Property("id"); v.IsNull() {
		t.Fatal("id null")
	}
}

type world struct {
	k     *sim.Kernel
	net   *simnet.Network
	host  *simbroker.Host
	cnode *simnet.Node
}

func newWorld(seed int64) *world {
	k := sim.New(seed)
	net := simnet.New(k)
	bn := net.AddNode("broker", simnet.HydraNode())
	cn := net.AddNode("client1", simnet.HydraNode())
	host := simbroker.NewHost(net, bn, broker.DefaultConfig("broker"), simbroker.DefaultCosts())
	return &world{k: k, net: net, host: host, cnode: cn}
}

func fleetCfg(w *world, gens, pubs int) FleetConfig {
	return FleetConfig{
		Generators:    gens,
		SpawnInterval: 500 * sim.Millisecond,
		WarmupMin:     10 * sim.Second,
		WarmupMax:     20 * sim.Second,
		Period:        10 * sim.Second,
		PublishCount:  pubs,
		Transport:     simbroker.TCP(),
		TopicFor:      func(int) string { return "power" },
		HostFor:       func(int) *simbroker.Host { return w.host },
		NodeFor:       func(int) *simnet.Node { return w.cnode },
	}
}

func TestFleetPublishesExactCount(t *testing.T) {
	w := newWorld(1)
	mon, err := StartMonitor(w.k, MonitorConfig{
		Host: w.host, Node: w.cnode, Transport: simbroker.TCP(), Topics: []string{"power"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := StartFleet(w.k, fleetCfg(w, 20, 5))
	w.k.RunUntil(f.EndTime() + 30*sim.Second)
	if f.Published() != 100 {
		t.Fatalf("published = %d, want 100", f.Published())
	}
	if mon.Received() != 100 {
		t.Fatalf("received = %d, want 100 (lossless TCP)", mon.Received())
	}
	if f.Refused() != 0 || f.Connected() != 20 {
		t.Fatalf("refused=%d connected=%d", f.Refused(), f.Connected())
	}
	if mon.RTT().Count() != 100 {
		t.Fatalf("rtt samples = %d", mon.RTT().Count())
	}
	if mean := mon.RTT().Mean(); mean <= 0 || mean > 50 {
		t.Fatalf("mean RTT = %v ms, implausible", mean)
	}
}

func TestFleetWarmupSpreadsFirstPublishes(t *testing.T) {
	w := newWorld(2)
	var firsts []sim.Time
	cfg := fleetCfg(w, 50, 1)
	cfg.Payload = func(genID int, seq int64) *message.Message {
		firsts = append(firsts, w.k.Now())
		return MonitoringMessage(genID, seq)
	}
	f := StartFleet(w.k, cfg)
	w.k.RunUntil(f.EndTime())
	if len(firsts) != 50 {
		t.Fatalf("first publishes = %d", len(firsts))
	}
	// Generator i spawns at i*0.5s and first publishes within
	// [spawn+10s, spawn+20s).
	for i, at := range firsts {
		spawn := sim.Time(i) * 500 * sim.Millisecond
		if at < spawn+10*sim.Second || at >= spawn+20*sim.Second {
			t.Fatalf("generator %d first publish at %v, outside warmup window", i, at)
		}
	}
}

func TestFleetStopHaltsPublishing(t *testing.T) {
	w := newWorld(3)
	f := StartFleet(w.k, fleetCfg(w, 5, 1000))
	w.k.RunUntil(60 * sim.Second)
	f.Stop()
	at := f.Published()
	w.k.RunUntil(200 * sim.Second)
	if f.Published() != at {
		t.Fatalf("fleet kept publishing after Stop: %d -> %d", at, f.Published())
	}
}

func TestFleetRefusalsCounted(t *testing.T) {
	w := newWorld(4)
	// Shrink the broker's native budget to 10 connections.
	costs := simbroker.DefaultCosts()
	costs.NativeBudget = 10 * costs.NativePerConn
	small := simbroker.NewHost(w.net, w.net.AddNode("small", simnet.HydraNode()), broker.DefaultConfig("small"), costs)
	cfg := fleetCfg(w, 15, 1)
	cfg.HostFor = func(int) *simbroker.Host { return small }
	f := StartFleet(w.k, cfg)
	w.k.RunUntil(f.EndTime())
	if f.Refused() != 5 || f.Connected() != 10 {
		t.Fatalf("refused=%d connected=%d, want 5/10", f.Refused(), f.Connected())
	}
}

func TestMonitorRefusedSurfacesError(t *testing.T) {
	w := newWorld(5)
	costs := simbroker.DefaultCosts()
	costs.NativeBudget = 1 // smaller than any thread stack
	full := simbroker.NewHost(w.net, w.net.AddNode("full", simnet.HydraNode()), broker.DefaultConfig("full"), costs)
	if _, err := StartMonitor(w.k, MonitorConfig{Host: full, Node: w.cnode, Transport: simbroker.TCP(), Topics: []string{"t"}}); err == nil {
		t.Fatal("expected refusal error")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		w := newWorld(42)
		mon, err := StartMonitor(w.k, MonitorConfig{Host: w.host, Node: w.cnode, Transport: simbroker.TCP(), Topics: []string{"power"}})
		if err != nil {
			t.Fatal(err)
		}
		f := StartFleet(w.k, fleetCfg(w, 30, 3))
		w.k.RunUntil(f.EndTime() + 10*sim.Second)
		return mon.Received(), mon.RTT().Mean()
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1 != r2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", r1, m1, r2, m2)
	}
}

func TestBadConfigPanics(t *testing.T) {
	w := newWorld(6)
	for _, mut := range []func(*FleetConfig){
		func(c *FleetConfig) { c.PublishCount = 0 },
		func(c *FleetConfig) { c.Generators = 0 },
	} {
		cfg := fleetCfg(w, 5, 5)
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad config did not panic")
				}
			}()
			StartFleet(w.k, cfg)
		}()
	}
}

func TestUDPFleetLosesMessages(t *testing.T) {
	w := newWorld(7)
	tr := simbroker.UDP()
	tr.LossProb = 0.15 // exaggerated for a small test
	mon, err := StartMonitor(w.k, MonitorConfig{Host: w.host, Node: w.cnode, Transport: tr, Topics: []string{"power"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(w, 40, 10)
	cfg.Transport = tr
	f := StartFleet(w.k, cfg)
	w.k.RunUntil(f.EndTime() + 30*sim.Second)
	if mon.Received() >= f.Published() {
		t.Fatalf("UDP run lossless: %d/%d", mon.Received(), f.Published())
	}
	if mon.Received() < f.Published()*7/10 {
		t.Fatalf("UDP lost too much: %d/%d", mon.Received(), f.Published())
	}
}
