package gridmon

import (
	"fmt"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Publish fan-out benchmarks for the broker core's subscription index:
// 10/100/1000 subscribers × {no selector, simple selector, complex
// selector}. Subscribers with selectors are split into ten interest
// bands, so a published message matches roughly a tenth of them — the
// content-filtering regime the paper's selector workload models. Each
// iteration publishes one message and feeds back the acknowledgements
// its deliveries produced.
//
// `go test -bench=PublishFanout` runs the matrix as a smoke test; the
// numbers that count are the live daemon's (bash bench/run.sh, and its
// broker.publish_ns_* layer replays).

// fanoutEnv is a minimal broker.Env: unlimited memory, frames recorded
// only to the extent needed to acknowledge deliveries. Like a real
// transport it consumes each pooled Deliver frame (or DeliverBatch, for
// fan-outs wide enough to be batched) and returns it to its pool, and
// like a batching client it reuses its Ack frames (and their tag
// slices) across publishes, so the steady-state measurement shows the
// broker's own allocations. All subscriptions live on one connection,
// so a batched fan-out is a single run and Send is never concurrent.
type fanoutEnv struct {
	acks      []wire.Ack
	delivered uint64
}

func (e *fanoutEnv) Now() int64 { return 0 }
func (e *fanoutEnv) Send(conn broker.ConnID, f wire.Frame) {
	switch d := f.(type) {
	case *wire.Deliver:
		e.ack(d.SubID, d.Tag)
		wire.PutDeliver(d)
	case *wire.DeliverBatch:
		for _, ent := range d.Entries {
			e.ack(ent.SubID, ent.Tag)
		}
		wire.PutDeliverBatch(d)
	}
}

func (e *fanoutEnv) ack(subID, tag int64) {
	e.delivered++
	if len(e.acks) < cap(e.acks) {
		e.acks = e.acks[:len(e.acks)+1]
		a := &e.acks[len(e.acks)-1]
		a.SubID = subID
		a.Tags = append(a.Tags[:0], tag)
	} else {
		e.acks = append(e.acks, wire.Ack{SubID: subID, Tags: []int64{tag}})
	}
}

func (e *fanoutEnv) CloseConn(broker.ConnID) {}
func (e *fanoutEnv) AllocConn() error        { return nil }
func (e *fanoutEnv) FreeConn()               {}
func (e *fanoutEnv) Alloc(int64) error       { return nil }
func (e *fanoutEnv) Free(int64)              {}

const fanoutBands = 10

func fanoutSelector(class string, band int) string {
	lo, hi := band*1000, band*1000+999
	switch class {
	case "none":
		return ""
	case "simple":
		return fmt.Sprintf("id BETWEEN %d AND %d", lo, hi)
	case "complex":
		return fmt.Sprintf(
			"id BETWEEN %d AND %d AND region IN ('us', 'eu') AND name LIKE 'gen-%%' AND load * 2 < 2000",
			lo, hi)
	}
	panic("unknown selector class " + class)
}

// setupFanout builds a broker with subs subscribers on one topic. All
// subscriptions land on a single connection; fan-out cost is per
// subscription, not per connection.
func setupFanout(subs int, class string) (*broker.Broker, *fanoutEnv) {
	env := &fanoutEnv{}
	b := broker.New(env, broker.DefaultConfig("bench"))
	if err := b.OnConnOpen(1); err != nil {
		panic(err)
	}
	if err := b.OnConnOpen(2); err != nil {
		panic(err)
	}
	for i := 0; i < subs; i++ {
		b.OnFrame(1, wire.Subscribe{
			SubID:    int64(i + 1),
			Dest:     message.Topic("power"),
			Selector: fanoutSelector(class, i%fanoutBands),
		})
	}
	return b, env
}

// fanoutPublish publishes the i-th message and processes the resulting
// acknowledgements, as a live broker would.
func fanoutPublish(b *broker.Broker, env *fanoutEnv, i int) {
	m := message.NewText("reading")
	m.ID = "ID:bench/1"
	m.Dest = message.Topic("power")
	m.SetProperty("id", message.Int(int32(i*7919%(fanoutBands*1000))))
	m.SetProperty("region", message.String("eu"))
	m.SetProperty("name", message.String("gen-42"))
	m.SetProperty("load", message.Double(400))
	env.acks = env.acks[:0]
	b.OnFrame(2, wire.Publish{Seq: int64(i), Msg: m})
	for i := range env.acks {
		b.OnFrame(1, &env.acks[i])
	}
}

func benchmarkFanout(b *testing.B, subs int, class string) {
	br, env := setupFanout(subs, class)
	fanoutPublish(br, env, 0) // warm up; sanity-check delivery counts
	if class == "none" && env.delivered != uint64(subs) {
		b.Fatalf("warmup delivered %d of %d", env.delivered, subs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanoutPublish(br, env, i+1)
	}
	b.ReportMetric(float64(env.delivered)/float64(b.N), "deliveries/op")
}

func BenchmarkPublishFanout(b *testing.B) {
	for _, subs := range []int{10, 100, 1000} {
		for _, class := range []string{"none", "simple", "complex"} {
			b.Run(fmt.Sprintf("subs=%d/sel=%s", subs, class), func(b *testing.B) {
				benchmarkFanout(b, subs, class)
			})
		}
	}
}
