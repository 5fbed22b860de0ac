package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/simproc"
	"gridmon/internal/wire"
)

// Tests for the sharded destination layer. Two obligations:
//
//  1. Equivalence — sharding is a pure partitioning of lock domains, so
//     with a single calling goroutine a sharded broker must produce
//     exactly the frame transcripts, stats, backlogs and heap usage of
//     the single-shard broker for any operation sequence, and both must
//     route as the naive oracle (oracle_test.go) predicts.
//  2. Safety — with many calling goroutines the broker must stay
//     data-race free and keep its memory accounting balanced. Run under
//     -race (the CI race job covers this package).

// transcript renders a connection's outbound frames into a canonical,
// comparable form.
func transcript(env *fakeEnv, c ConnID) []string {
	var out []string
	for _, f := range env.sent[c] {
		switch v := f.(type) {
		case *wire.Deliver:
			out = append(out, fmt.Sprintf("deliver sub=%d tag=%d id=%s", v.SubID, v.Tag, v.Msg.ID))
		case wire.Deliver:
			out = append(out, fmt.Sprintf("deliver sub=%d tag=%d id=%s", v.SubID, v.Tag, v.Msg.ID))
		default:
			out = append(out, fmt.Sprintf("%T%+v", f, f))
		}
	}
	return out
}

// requireSameBehaviour compares two brokers that were driven through
// the same single-goroutine op stream on everything observable: frame
// transcripts, stats (mode meters aside), pending count, heap usage and
// topic set.
func requireSameBehaviour(t *testing.T, label string, conns []ConnID, bA *Broker, envA *fakeEnv, bB *Broker, envB *fakeEnv) {
	t.Helper()
	for _, c := range conns {
		if ta, tb := transcript(envA, c), transcript(envB, c); !reflect.DeepEqual(ta, tb) {
			t.Fatalf("%s conn %d: transcripts differ (%d vs %d frames)", label, c, len(ta), len(tb))
		}
	}
	if sa, sb := clearModeMeters(bA.Stats()), clearModeMeters(bB.Stats()); sa != sb {
		t.Fatalf("%s: stats %+v != %+v", label, sa, sb)
	}
	if bA.PendingCount() != bB.PendingCount() {
		t.Fatalf("%s: pending %d != %d", label, bA.PendingCount(), bB.PendingCount())
	}
	if envA.heap.Used() != envB.heap.Used() {
		t.Fatalf("%s: heap %d != %d", label, envA.heap.Used(), envB.heap.Used())
	}
	if ta, tb := bA.Topics(), bB.Topics(); !reflect.DeepEqual(ta, tb) {
		t.Fatalf("%s: topics %v != %v", label, ta, tb)
	}
}

func TestShardOfPartitionsNames(t *testing.T) {
	b, _ := newBroker(t, 0)
	if b.NumShards() != 1 || b.ShardOf("anything") != 0 {
		t.Fatalf("default broker: shards=%d shardOf=%d", b.NumShards(), b.ShardOf("anything"))
	}
	cfg := DefaultConfig("b8")
	cfg.Shards = 8
	b8 := New(newFakeEnv(0), cfg)
	if b8.NumShards() != 8 {
		t.Fatalf("shards = %d, want 8", b8.NumShards())
	}
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		s := b8.ShardOf(fmt.Sprintf("topic-%d", i))
		if s < 0 || s >= 8 {
			t.Fatalf("shard index %d out of range", s)
		}
		seen[s] = true
		if s2 := b8.ShardOf(fmt.Sprintf("topic-%d", i)); s2 != s {
			t.Fatalf("ShardOf not stable: %d then %d", s, s2)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("256 names landed on only %d of 8 shards", len(seen))
	}
}

// TestShardedSerialEquivalenceRandomized drives identical randomized
// operation sequences — connection churn, topic/queue/durable
// subscribes, unsubscribes, publishes, partial acks — through a 1-shard
// broker, an 8-shard broker and the oracle from one goroutine, then
// requires both brokers to have delivered what the oracle predicts and
// to agree bit for bit on frame transcripts, stats, pending counts and
// heap usage. This is the "sharded == serial" proof the concurrency
// architecture rests on: shards change only which operations may
// overlap, never what any operation does.
func TestShardedSerialEquivalenceRandomized(t *testing.T) {
	selectors := []string{
		"", "TRUE", "1 = 1",
		"id < 50", "id >= 50",
		"name LIKE 'gen-%'", "id BETWEEN 20 AND 60",
		"region IN ('us', 'eu') AND id < 80",
		"not a selector <<", // invalid: rejected identically
	}
	var topics, queues []message.Destination
	for i := 0; i < 10; i++ {
		topics = append(topics, message.Topic(fmt.Sprintf("t%d", i)))
	}
	for i := 0; i < 4; i++ {
		queues = append(queues, message.Queue(fmt.Sprintf("q%d", i)))
	}

	for seed := int64(1); seed <= 6; seed++ {
		envS := newFakeEnv(0)
		bS := New(envS, DefaultConfig("b")) // one shard

		envP := newFakeEnv(0)
		cfgP := DefaultConfig("b")
		cfgP.Shards = 8
		bP := New(envP, cfgP)

		orc := newOracle()
		both := func(fn func(b target)) { fn(bS); fn(bP); fn(orc) }
		rng := rand.New(rand.NewSource(seed))

		var open []ConnID
		nextConn := ConnID(0)
		openConn := func() {
			nextConn++
			id := nextConn
			both(func(b target) {
				if err := b.OnConnOpen(id); err != nil {
					t.Fatal(err)
				}
			})
			open = append(open, id)
		}
		openConn() // conn 1 is the dedicated publisher
		pubConn := open[0]

		type subInfo struct {
			conn ConnID
			id   int64
		}
		var live []subInfo
		nextSub := int64(0)
		acked := map[ConnID]int{} // frames of env.sent already acked, per conn

		for op := 0; op < 600; op++ {
			switch r := rng.Intn(20); {
			case r < 1 && len(open) < 12: // open another conn
				openConn()
			case r < 2 && len(open) > 1: // close a non-publisher conn
				i := 1 + rng.Intn(len(open)-1)
				id := open[i]
				open = append(open[:i], open[i+1:]...)
				kept := live[:0]
				for _, s := range live {
					if s.conn != id {
						kept = append(kept, s)
					}
				}
				live = kept
				both(func(b target) { b.OnConnClose(id) })
			case r < 6: // subscribe a topic
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     topics[rng.Intn(len(topics))],
					Selector: selectors[rng.Intn(len(selectors))],
				}
				both(func(b target) { b.OnFrame(c, f) })
				live = append(live, subInfo{conn: c, id: nextSub})
			case r < 8: // subscribe a queue
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     queues[rng.Intn(len(queues))],
					Selector: selectors[rng.Intn(5)], // valid only
				}
				both(func(b target) { b.OnFrame(c, f) })
				live = append(live, subInfo{conn: c, id: nextSub})
			case r < 9: // durable attach (sometimes immediately destroyed)
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				f := wire.Subscribe{
					SubID:       nextSub,
					Dest:        topics[rng.Intn(3)],
					Selector:    "id < 70",
					Durable:     true,
					DurableName: fmt.Sprintf("dur-%d", rng.Intn(3)),
				}
				both(func(b target) { b.OnFrame(c, f) })
				if rng.Intn(2) == 0 {
					both(func(b target) { b.OnFrame(c, wire.Unsubscribe{SubID: nextSub}) })
				} else {
					live = append(live, subInfo{conn: c, id: nextSub})
				}
			case r < 10: // unsubscribe
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				s := live[i]
				live = append(live[:i], live[i+1:]...)
				both(func(b target) { b.OnFrame(s.conn, wire.Unsubscribe{SubID: s.id}) })
			case r < 12: // ack a batch of this conn's unacked deliveries
				if len(open) < 2 {
					continue
				}
				c := open[1+rng.Intn(len(open)-1)]
				// Derive tags from the serial env's transcript; the
				// sharded broker must have produced the same frames
				// (verified wholesale at the end).
				frames := envS.sent[c]
				tags := map[int64][]int64{}
				n := 0
				for _, f := range frames[acked[c]:] {
					if d, ok := f.(*wire.Deliver); ok {
						tags[d.SubID] = append(tags[d.SubID], d.Tag)
					}
					n++
					if n >= 20 {
						break
					}
				}
				acked[c] += n
				for subID, ts := range tags {
					f := wire.Ack{SubID: subID, Tags: ts}
					both(func(b target) { b.OnFrame(c, f) })
				}
			default: // publish
				id := fmt.Sprintf("m%d", op)
				dest := topics[rng.Intn(len(topics))]
				if rng.Intn(4) == 0 {
					dest = queues[rng.Intn(len(queues))]
				}
				props := map[string]message.Value{
					"id":     message.Int(int32(rng.Intn(100))),
					"name":   message.String([]string{"gen-1", "probe-2"}[rng.Intn(2)]),
					"region": message.String([]string{"us", "eu", "ap"}[rng.Intn(3)]),
				}
				both(func(b target) { publishOn(b, pubConn, id, dest, props) })
			}
		}

		conns := make([]ConnID, nextConn)
		for i := range conns {
			conns[i] = ConnID(i + 1)
		}
		orc.check(t, fmt.Sprintf("seed %d, 1 shard", seed), bS, conns, envS.observed)
		orc.check(t, fmt.Sprintf("seed %d, 8 shards", seed), bP, conns, envP.observed)
		requireSameBehaviour(t, fmt.Sprintf("seed %d, 1 vs 8 shards", seed), conns, bS, envS, bP, envP)
	}
}

// raceEnv is a concurrency-safe Env: atomic memory accounting
// (simproc.Heap, which panics on unbalanced frees) and per-conn
// delivery records behind per-conn locks.
type raceEnv struct {
	heap   *simproc.Heap
	native *simproc.Heap

	mu   sync.Mutex
	recs map[ConnID]*deliveryRec

	sent atomic.Uint64
}

type deliveryRec struct {
	mu   sync.Mutex
	tags []wire.Ack // one entry per delivery, ready to feed back
	got  []delivery // every delivery, in arrival order (never reset)
}

func newRaceEnv() *raceEnv {
	return &raceEnv{
		heap:   simproc.NewHeap("race-heap", 0, 0),
		native: simproc.NewHeap("race-native", 0, 0),
		recs:   make(map[ConnID]*deliveryRec),
	}
}

func (e *raceEnv) rec(c ConnID) *deliveryRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.recs[c]
	if r == nil {
		r = &deliveryRec{}
		e.recs[c] = r
	}
	return r
}

func (e *raceEnv) Now() int64 { return 0 }
func (e *raceEnv) Send(c ConnID, f wire.Frame) {
	e.sent.Add(1)
	switch d := f.(type) {
	case *wire.Deliver:
		r := e.rec(c)
		r.mu.Lock()
		r.tags = append(r.tags, wire.Ack{SubID: d.SubID, Tags: []int64{d.Tag}})
		r.got = append(r.got, delivery{d.SubID, d.Msg.ID})
		r.mu.Unlock()
		wire.PutDeliver(d)
	case *wire.DeliverBatch:
		r := e.rec(c)
		r.mu.Lock()
		for _, ent := range d.Entries {
			r.tags = append(r.tags, wire.Ack{SubID: ent.SubID, Tags: []int64{ent.Tag}})
			r.got = append(r.got, delivery{ent.SubID, d.Msg.ID})
		}
		r.mu.Unlock()
		wire.PutDeliverBatch(d)
	}
}
func (e *raceEnv) CloseConn(ConnID)    {}
func (e *raceEnv) AllocConn() error    { return e.native.Alloc(1) }
func (e *raceEnv) FreeConn()           { e.native.Free(1) }
func (e *raceEnv) Alloc(n int64) error { return e.heap.Alloc(n) }
func (e *raceEnv) Free(n int64)        { e.heap.Free(n) }

// observed returns a copy of one connection's deliveries so far (the
// race-env counterpart of fakeEnv.observed; these storms use topics
// only).
func (e *raceEnv) observed(c ConnID) []delivery {
	r := e.rec(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]delivery(nil), r.got...)
}

// drainAcks feeds every recorded delivery of conn c back as an Ack.
func (e *raceEnv) drainAcks(b *Broker, c ConnID) {
	r := e.rec(c)
	r.mu.Lock()
	tags := r.tags
	r.tags = nil
	r.mu.Unlock()
	for i := range tags {
		b.OnFrame(c, &tags[i])
	}
}

// TestConcurrentShardStress runs subscribe/publish/ack/unsubscribe/
// disconnect from 16 goroutines against an 8-shard broker, with stats
// readers running concurrently. Each goroutine owns its connections
// (per-connection frame serialization is the transport contract); the
// destinations are shared, so goroutines meet on every shard. Afterwards
// a sequential sweep releases queue and durable backlogs and the heap
// must balance to zero — simproc.Heap panics on any unbalanced free, and
// -race (CI) checks the locking.
func TestConcurrentShardStress(t *testing.T) {
	const workers = 16
	env := newRaceEnv()
	cfg := DefaultConfig("race")
	cfg.Shards = 8
	b := New(env, cfg)

	topics := make([]message.Destination, 8)
	for i := range topics {
		topics[i] = message.Topic(fmt.Sprintf("t%d", i))
	}
	queues := make([]message.Destination, 4)
	for i := range queues {
		queues[i] = message.Queue(fmt.Sprintf("q%d", i))
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent Stats/PendingCount/Topics readers
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.Stats()
				_ = b.PendingCount()
				_ = b.Topics()
				_ = b.TopicSubscribers("t0")
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			gen := 0
			newConnID := func() ConnID {
				gen++
				return ConnID(g*100000 + gen)
			}
			c := newConnID()
			if err := b.OnConnOpen(c); err != nil {
				t.Error(err)
				return
			}
			nextSub := int64(0)
			var live []int64
			for op := 0; op < 400; op++ {
				switch r := rng.Intn(10); {
				case r < 3: // subscribe topic (own durable name sometimes)
					nextSub++
					f := wire.Subscribe{SubID: nextSub, Dest: topics[rng.Intn(len(topics))]}
					if rng.Intn(4) == 0 {
						f.Selector = "id < 50"
					}
					if rng.Intn(5) == 0 {
						f.Durable = true
						// Mostly private durable names; sometimes a shared
						// one, whose second attach is rejected — both
						// outcomes must be safe.
						if rng.Intn(3) == 0 {
							f.DurableName = "dur-shared"
						} else {
							f.DurableName = fmt.Sprintf("dur-%d", g)
						}
					}
					b.OnFrame(c, f)
					live = append(live, nextSub)
				case r < 4: // subscribe queue
					nextSub++
					b.OnFrame(c, wire.Subscribe{SubID: nextSub, Dest: queues[rng.Intn(len(queues))]})
					live = append(live, nextSub)
				case r < 5: // unsubscribe
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					b.OnFrame(c, wire.Unsubscribe{SubID: live[i]})
					live = append(live[:i], live[i+1:]...)
				case r < 6: // ack everything delivered so far
					env.drainAcks(b, c)
				case r < 7: // disconnect, reconnect under a fresh id
					b.OnConnClose(c)
					env.drainAcks(b, c) // acks for a dead conn are ignored
					c = newConnID()
					if err := b.OnConnOpen(c); err != nil {
						t.Error(err)
						return
					}
					live = live[:0]
					nextSub = 0
				default: // publish
					m := message.NewText("x")
					m.ID = fmt.Sprintf("m-%d-%d", g, op)
					m.Dest = topics[rng.Intn(len(topics))]
					if rng.Intn(4) == 0 {
						m.Dest = queues[rng.Intn(len(queues))]
					}
					m.SetProperty("id", message.Int(int32(rng.Intn(100))))
					b.OnFrame(c, wire.Publish{Seq: int64(op), Msg: m})
				}
			}
			env.drainAcks(b, c)
			b.OnConnClose(c)
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := b.Stats().Connections; got != 0 {
		t.Fatalf("connections after close: %d", got)
	}

	// Sequential sweep: recreate-and-destroy each durable (frees its
	// backlog), drain each queue and ack the deliveries. The heap must
	// return to exactly zero.
	sweep := ConnID(9_000_000)
	if err := b.OnConnOpen(sweep); err != nil {
		t.Fatal(err)
	}
	subID := int64(0)
	for g := 0; g <= workers; g++ {
		name := fmt.Sprintf("dur-%d", g)
		if g == workers {
			name = "dur-shared"
		}
		subID++
		// A different topic+selector recreates the durable, freeing any
		// buffered backlog; unsubscribing destroys it.
		b.OnFrame(sweep, wire.Subscribe{
			SubID: subID, Dest: message.Topic("sweep"), Selector: "FALSE",
			Durable: true, DurableName: name,
		})
		b.OnFrame(sweep, wire.Unsubscribe{SubID: subID})
	}
	for _, q := range queues {
		subID++
		b.OnFrame(sweep, wire.Subscribe{SubID: subID, Dest: q})
		env.drainAcks(b, sweep)
		b.OnFrame(sweep, wire.Unsubscribe{SubID: subID})
	}
	env.drainAcks(b, sweep)
	b.OnConnClose(sweep)

	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap not balanced after full teardown: %d bytes live", used)
	}
	if n := b.PendingCount(); n != 0 {
		t.Fatalf("pending count after teardown: %d", n)
	}
	st := b.Stats()
	if st.Delivered < st.Acked {
		t.Fatalf("delivered %d < acked %d", st.Delivered, st.Acked)
	}
	if st.Published == 0 || st.Delivered == 0 {
		t.Fatalf("stress produced no traffic: %+v", st)
	}
}
