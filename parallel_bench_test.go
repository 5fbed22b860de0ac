package gridmon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Parallel-publish benchmarks for the sharded broker core: P publisher
// goroutines on P distinct topics (each with subsPer no-selector
// subscribers) drive OnFrame concurrently. Each publisher runs the whole
// publish→deliver→ack cycle inline on its own goroutine, meeting the
// others only on shard locks — on an N-core box, publishes to different
// topics execute on different cores.
//
// `go test -bench ParallelPublish -cpu 1,4,8` runs the matrix.

// parAckPair is one recorded delivery awaiting acknowledgement.
type parAckPair struct {
	sub, tag int64
}

// parConnRec accumulates deliveries per subscriber connection. With one
// publisher per topic the owning publisher is the only goroutine
// touching its topic's record, so the mutex is uncontended.
type parConnRec struct {
	mu    sync.Mutex
	pairs []parAckPair
}

// parEnv is a thread-safe broker.Env for the benchmark: unlimited
// memory, deliveries recorded for ack feedback, pooled frames released
// like a real transport would.
type parEnv struct {
	recs      map[broker.ConnID]*parConnRec // fixed key set after setup
	delivered atomic.Uint64
}

func (e *parEnv) Now() int64 { return 0 }
func (e *parEnv) Send(c broker.ConnID, f wire.Frame) {
	r := e.recs[c]
	switch d := f.(type) {
	case *wire.Deliver:
		e.delivered.Add(1)
		if r != nil {
			r.mu.Lock()
			r.pairs = append(r.pairs, parAckPair{sub: d.SubID, tag: d.Tag})
			r.mu.Unlock()
		}
		wire.PutDeliver(d)
	case *wire.DeliverBatch:
		e.delivered.Add(uint64(len(d.Entries)))
		if r != nil {
			r.mu.Lock()
			for _, ent := range d.Entries {
				r.pairs = append(r.pairs, parAckPair{sub: ent.SubID, tag: ent.Tag})
			}
			r.mu.Unlock()
		}
		wire.PutDeliverBatch(d)
	}
}
func (e *parEnv) CloseConn(broker.ConnID) {}
func (e *parEnv) AllocConn() error        { return nil }
func (e *parEnv) FreeConn()               {}
func (e *parEnv) Alloc(int64) error       { return nil }
func (e *parEnv) Free(int64)              {}

// parTopicNames picks one topic name per shard-distinct slot so the P
// topics occupy P distinct lock domains (hash collisions would silently
// serialize two publishers and understate scaling).
func parTopicNames(b *broker.Broker, n int) []string {
	names := make([]string, 0, n)
	used := map[int]bool{}
	for i := 0; len(names) < n; i++ {
		name := fmt.Sprintf("par.%d", i)
		s := b.ShardOf(name)
		if b.NumShards() >= n && used[s] {
			continue
		}
		used[s] = true
		names = append(names, name)
	}
	return names
}

func parMessage(topic string, i int) *message.Message {
	m := message.NewText("reading")
	m.ID = "ID:bench/1"
	m.Dest = message.Topic(topic)
	m.SetProperty("id", message.Int(int32(i)))
	m.SetProperty("load", message.Double(400))
	return m
}

// benchmarkParallelPublish times b.N publishes spread across `pubs`
// publisher goroutines on `pubs` shard-distinct topics, each with
// subsPer subscribers; every publish feeds its deliveries' acks back,
// as a live broker would see them.
func benchmarkParallelPublish(b *testing.B, pubs, subsPer int) {
	env := &parEnv{recs: make(map[broker.ConnID]*parConnRec)}
	cfg := broker.DefaultConfig("bench")
	cfg.Shards = pubs
	br := broker.New(env, cfg)
	topics := parTopicNames(br, pubs)

	subConn := func(t int) broker.ConnID { return broker.ConnID(10_000 + t) }
	pubConn := func(p int) broker.ConnID { return broker.ConnID(20_000 + p) }
	for t := 0; t < pubs; t++ {
		id := subConn(t)
		env.recs[id] = &parConnRec{}
		if err := br.OnConnOpen(id); err != nil {
			b.Fatal(err)
		}
		for s := 0; s < subsPer; s++ {
			br.OnFrame(id, wire.Subscribe{SubID: int64(s + 1), Dest: message.Topic(topics[t])})
		}
	}
	for p := 0; p < pubs; p++ {
		if err := br.OnConnOpen(pubConn(p)); err != nil {
			b.Fatal(err)
		}
	}

	// drainAcks feeds the recorded deliveries of topic t back as acks,
	// reusing the caller's scratch buffers across iterations.
	drainAcks := func(t int, scratch *[]parAckPair, ack *wire.Ack) {
		r := env.recs[subConn(t)]
		r.mu.Lock()
		*scratch = append((*scratch)[:0], r.pairs...)
		r.pairs = r.pairs[:0]
		r.mu.Unlock()
		for _, pr := range *scratch {
			ack.SubID = pr.sub
			ack.Tags = append(ack.Tags[:0], pr.tag)
			br.OnFrame(subConn(t), ack)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next int64
	var workers sync.WaitGroup
	for p := 0; p < pubs; p++ {
		workers.Add(1)
		go func(p int) {
			defer workers.Done()
			t := p % pubs
			scratch := make([]parAckPair, 0, subsPer)
			var ack wire.Ack
			for {
				i := atomic.AddInt64(&next, 1)
				if i > int64(b.N) {
					return
				}
				m := parMessage(topics[t], int(i))
				br.OnFrame(pubConn(p), wire.Publish{Seq: i, Msg: m})
				drainAcks(t, &scratch, &ack)
			}
		}(p)
	}
	workers.Wait()
	b.StopTimer()
	b.ReportMetric(float64(env.delivered.Load())/float64(b.N), "deliveries/op")
}

func BenchmarkParallelPublish(b *testing.B) {
	for _, pubs := range []int{1, 8} {
		b.Run(fmt.Sprintf("pubs=%d/topics=%d/subs=100", pubs, pubs), func(b *testing.B) {
			benchmarkParallelPublish(b, pubs, 100)
		})
	}
}
