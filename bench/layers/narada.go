package main

import (
	"runtime"
	"sync"

	"gridmon/bench/inputs"
	"gridmon/internal/broker"
	"gridmon/internal/fanout"
	"gridmon/internal/message"
	"gridmon/internal/predindex"
	"gridmon/internal/selector"
	"gridmon/internal/wire"
)

var power = message.Topic("power")

// probe adapts a message to the matching index's probe source, as the
// broker's publish path does.
type probe struct{ m *message.Message }

func (p probe) ProbeAttr(attr string) (predindex.Value, bool) {
	return selector.ProbeValue(p.m, attr)
}

// delivery is one frame the broker emitted, kept so the replay can
// acknowledge it as a client would.
type delivery struct {
	conn     broker.ConnID
	sub, tag int64
}

// discardEnv is a broker.Env that drops every frame after noting the
// deliveries. The parallel fan-out engine sends from several goroutines.
type discardEnv struct {
	mu   sync.Mutex
	sent []delivery
}

func (e *discardEnv) Now() int64 { return 0 }
func (e *discardEnv) Send(c broker.ConnID, f wire.Frame) {
	switch d := f.(type) {
	case *wire.Deliver:
		e.mu.Lock()
		e.sent = append(e.sent, delivery{c, d.SubID, d.Tag})
		e.mu.Unlock()
		wire.PutDeliver(d)
	case *wire.DeliverBatch:
		e.mu.Lock()
		for _, ent := range d.Entries {
			e.sent = append(e.sent, delivery{c, ent.SubID, ent.Tag})
		}
		e.mu.Unlock()
		wire.PutDeliverBatch(d)
	}
}
func (e *discardEnv) CloseConn(broker.ConnID) {}
func (e *discardEnv) AllocConn() error        { return nil }
func (e *discardEnv) FreeConn()               {}
func (e *discardEnv) Alloc(int64) error       { return nil }
func (e *discardEnv) Free(int64)              {}

const (
	pubConn  = broker.ConnID(100)
	subConns = 2 // the end-to-end workloads spread subscriptions over nproc connections
)

// rig is a broker with subscriptions registered, fed through OnFrame.
type rig struct {
	env   *discardEnv
	b     *broker.Broker
	grid  *inputs.Grid
	fresh []*message.Message // unfrozen copies for the next round's publishes
	tags  [1]int64
}

// newRig registers subs subscriptions on dest; selector(k) is
// subscription k's selector.
func newRig(seed int64, dest message.Destination, subs int, sel func(k int) string) *rig {
	env := &discardEnv{}
	cfg := broker.DefaultConfig("replay")
	cfg.Shards = runtime.GOMAXPROCS(0) // as jms.NewServer configures the daemon
	g := &rig{env: env, b: broker.New(env, cfg), grid: inputs.NewGrid(seed, 0, dest)}
	for c := range subConns {
		must(g.b.OnConnOpen(broker.ConnID(c + 1)))
	}
	must(g.b.OnConnOpen(pubConn))
	for k := range subs {
		g.b.OnFrame(broker.ConnID(k%subConns+1), wire.Subscribe{
			SubID: int64(k + 1), Dest: dest, Selector: sel(k), AckMode: message.AutoAck,
		})
	}
	return g
}

// prepare clones n ring messages: the daemon decodes a fresh, unfrozen
// message per publish, and the broker freezes what it is handed.
func (g *rig) prepare(n int) {
	g.fresh = g.fresh[:0]
	for i := range n {
		g.fresh = append(g.fresh, g.grid.Msgs[i%inputs.Generators].Clone())
	}
}

// publish sends one of the prepared messages; a round's consecutive i
// visit each exactly once.
func (g *rig) publish(i int) {
	g.b.OnFrame(pubConn, wire.Publish{Seq: int64(i), Msg: g.fresh[i%len(g.fresh)]})
}

func (g *rig) ack(d delivery) {
	g.tags[0] = d.tag
	g.b.OnFrame(d.conn, wire.Ack{SubID: d.sub, Tags: g.tags[:]})
}

// ackAll acknowledges every delivery noted so far.
func (g *rig) ackAll() {
	for _, d := range g.env.sent {
		g.ack(d)
	}
	g.env.sent = g.env.sent[:0]
}

// publishRound times publishes, preparing messages before each round and
// acknowledging the deliveries after it.
func (g *rig) publishRound(maxN int) round {
	return round{maxN: maxN, before: g.prepare, op: g.publish, after: g.ackAll}
}

func shared(int) string { return inputs.SharedSelector }

func naradaReplays(r *replayer, seed int64) {
	grid := inputs.NewGrid(seed, 0, power)
	at := func(i int) *message.Message { return grid.Msgs[i%inputs.Generators] }

	// wire: the frames of grid_paced, one way and back.
	var buf []byte
	r.ns("wire.encode_publish_ns", round{op: func(i int) {
		buf, _ = wire.AppendFrame(buf[:0], wire.Publish{Seq: int64(i), Msg: at(i)})
	}})
	publishes := make([][]byte, inputs.Generators)
	delivers := make([][]byte, inputs.Generators)
	frozen := make([]*message.Message, inputs.Generators)
	for i := range publishes {
		b, err := wire.AppendFrame(nil, wire.Publish{Seq: int64(i), Msg: at(i)})
		must(err)
		publishes[i] = b[4:]
		frozen[i] = at(i).Clone().Freeze()
		b, err = wire.AppendFrame(nil, &wire.Deliver{SubID: 1, Tag: int64(i), Msg: frozen[i]})
		must(err)
		delivers[i] = b[4:]
	}
	allocs := r.ns("wire.decode_publish_ns", round{op: func(i int) {
		_, _ = wire.Unmarshal(publishes[i%inputs.Generators])
	}})
	r.out["wire.decode_publish_allocs"] = metric{Value: allocs, Unit: "count"}
	d := &wire.Deliver{SubID: 1}
	r.ns("wire.encode_deliver_ns", round{op: func(i int) {
		d.Tag, d.Msg = int64(i), frozen[i%inputs.Generators] // encoding cached since the set-up above
		buf, _ = wire.AppendFrame(buf[:0], d)
	}})
	r.ns("wire.decode_deliver_ns", round{op: func(i int) {
		_, _ = wire.Unmarshal(delivers[i%inputs.Generators])
	}})
	ackFrame, err := wire.AppendFrame(nil, wire.Ack{SubID: 1, Tags: []int64{42}})
	must(err)
	r.ns("wire.decode_ack_ns", round{op: func(int) { _, _ = wire.Unmarshal(ackFrame[4:]) }})

	// selector and predindex: the selectors of match_churn.
	r.us("selector.compile_us", round{op: func(i int) {
		_, _ = selector.Parse(inputs.DistinctSelector(i % inputs.Generators))
	}})
	paper := selector.MustParse(inputs.SharedSelector).Compiled()
	r.ns("selector.eval_ns", round{op: func(i int) { paper.Eval(at(i)) }})
	keys := make([]predindex.Key, inputs.Generators)
	for k := range keys {
		keys[k] = selector.MustParse(inputs.DistinctSelector(k)).RequiredKey()
	}
	r.us("predindex.build_us_1000", round{op: func(int) { predindex.Build(keys) }})
	ix := predindex.Build(keys)
	var cand []int32
	r.ns("predindex.candidates_ns_1000", round{op: func(i int) {
		cand = ix.Candidates(probe{at(i)}, cand[:0])
	}})

	// broker: Broker.OnFrame against a discarding Env, one rig per
	// workload shape.
	fan1 := newRig(seed, power, 1, shared)
	r.ns("broker.publish_ns_fan1", fan1.publishRound(4096))
	var pending []delivery
	r.ns("broker.ack_ns", round{
		maxN: 4096,
		before: func(n int) {
			fan1.prepare(n)
			for i := range n {
				fan1.publish(i)
			}
			pending = append(pending[:0], fan1.env.sent...)
			fan1.env.sent = fan1.env.sent[:0]
		},
		op: func(i int) { fan1.ack(pending[i%len(pending)]) },
	})

	fan1000 := newRig(seed, power, 1000, shared)
	allocs = r.ns("broker.publish_ns_fan1000", fan1000.publishRound(64))
	r.out["broker.publish_allocs_fan1000"] = metric{Value: allocs, Unit: "count"}

	sel1000 := newRig(seed, power, inputs.Generators, inputs.DistinctSelector)
	r.ns("broker.publish_ns_sel1000", sel1000.publishRound(4096))
	churnID := int64(inputs.Generators + 1)
	sel1000.b.OnFrame(1, wire.Subscribe{SubID: churnID, Dest: power, Selector: inputs.ChurnSelector(0), AckMode: message.AutoAck})
	r.us("broker.subscribe_us_sel1000", round{op: func(i int) {
		sel1000.b.OnFrame(1, wire.Unsubscribe{SubID: churnID})
		churnID++
		sel1000.b.OnFrame(1, wire.Subscribe{SubID: churnID, Dest: power, Selector: inputs.ChurnSelector(i % 100), AckMode: message.AutoAck})
	}})

	queue := newRig(seed, message.Queue("jobs"), 1, func(int) string { return "" })
	r.ns("broker.queue_publish_ns", queue.publishRound(4096))

	// fanout: the pool hand-off a wide publish pays before any delivery.
	pool := fanout.New(0)
	chunks := runtime.GOMAXPROCS(0)
	r.ns("fanout.run_ns", round{op: func(int) { pool.Run(chunks, func(int) {}) }})
}
