package broker

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"gridmon/internal/message"
	"gridmon/internal/simproc"
	"gridmon/internal/wire"
)

// fakeEnv records outputs and backs memory with simproc heaps: `native`
// models the per-connection thread budget, `heap` the message heap.
type fakeEnv struct {
	now     int64
	sent    map[ConnID][]wire.Frame
	closed  map[ConnID]bool
	heap    *simproc.Heap
	native  *simproc.Heap
	connMem int64
}

func newFakeEnv(heapLimit int64) *fakeEnv {
	return &fakeEnv{
		sent:    make(map[ConnID][]wire.Frame),
		closed:  make(map[ConnID]bool),
		heap:    simproc.NewHeap("test-heap", heapLimit, 0),
		native:  simproc.NewHeap("test-native", 0, 0),
		connMem: 256 << 10,
	}
}

func (e *fakeEnv) Now() int64                  { return e.now }
func (e *fakeEnv) Send(c ConnID, f wire.Frame) { e.sent[c] = append(e.sent[c], f) }
func (e *fakeEnv) CloseConn(c ConnID)          { e.closed[c] = true }
func (e *fakeEnv) AllocConn() error            { return e.native.Alloc(e.connMem) }
func (e *fakeEnv) FreeConn()                   { e.native.Free(e.connMem) }
func (e *fakeEnv) Alloc(n int64) error         { return e.heap.Alloc(n) }
func (e *fakeEnv) Free(n int64)                { e.heap.Free(n) }

func (e *fakeEnv) deliveries(c ConnID) []wire.Deliver {
	var out []wire.Deliver
	for _, f := range e.sent[c] {
		// The broker emits pooled *wire.Deliver frames; the env records
		// them without releasing, so value copies here stay stable.
		if d, ok := f.(*wire.Deliver); ok {
			out = append(out, *d)
		}
	}
	return out
}

func (e *fakeEnv) lastFrame(c ConnID) wire.Frame {
	fs := e.sent[c]
	if len(fs) == 0 {
		return nil
	}
	return fs[len(fs)-1]
}

func newBroker(t *testing.T, heapLimit int64) (*Broker, *fakeEnv) {
	t.Helper()
	env := newFakeEnv(heapLimit)
	return New(env, DefaultConfig("b1")), env
}

func mustOpen(t *testing.T, b *Broker, id ConnID) {
	t.Helper()
	if err := b.OnConnOpen(id); err != nil {
		t.Fatalf("open %d: %v", id, err)
	}
	b.OnFrame(id, wire.Connect{ClientID: fmt.Sprintf("client-%d", id)})
}

func subscribe(t *testing.T, b *Broker, env *fakeEnv, c ConnID, subID int64, dest message.Destination, sel string) {
	t.Helper()
	b.OnFrame(c, wire.Subscribe{SubID: subID, Dest: dest, Selector: sel})
	for _, f := range env.sent[c] {
		if ok, isOK := f.(wire.SubOK); isOK && ok.SubID == subID {
			return
		}
	}
	t.Fatalf("subscribe %d on conn %d: no SubOK in %v", subID, c, env.sent[c])
}

func pub(b *Broker, c ConnID, dest message.Destination, props map[string]message.Value) *message.Message {
	m := message.NewText("payload")
	m.Dest = dest
	for k, v := range props {
		m.SetProperty(k, v)
	}
	b.OnFrame(c, wire.Publish{Seq: 1, Msg: m})
	return m
}

func TestConnectHandshake(t *testing.T) {
	b, env := newBroker(t, 0)
	mustOpen(t, b, 1)
	f := env.lastFrame(1)
	if c, ok := f.(wire.Connected); !ok || c.BrokerID != "b1" {
		t.Fatalf("handshake reply = %v", f)
	}
}

func TestTopicFanout(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("power")
	for i := ConnID(1); i <= 3; i++ {
		mustOpen(t, b, i)
	}
	subscribe(t, b, env, 1, 10, topic, "")
	subscribe(t, b, env, 2, 20, topic, "")
	pub(b, 3, topic, nil)
	if len(env.deliveries(1)) != 1 || len(env.deliveries(2)) != 1 {
		t.Fatalf("fanout: %d, %d", len(env.deliveries(1)), len(env.deliveries(2)))
	}
	if len(env.deliveries(3)) != 0 {
		t.Fatal("publisher received its own message without subscribing")
	}
	// Publisher gets a PubAck.
	if _, ok := env.lastFrame(3).(wire.PubAck); !ok {
		t.Fatalf("no PubAck: %v", env.lastFrame(3))
	}
	st := b.Stats()
	if st.Published != 1 || st.Delivered != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSelectorFiltering(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("power")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 10, topic, "id < 100")
	pub(b, 2, topic, map[string]message.Value{"id": message.Int(50)})
	pub(b, 2, topic, map[string]message.Value{"id": message.Int(500)})
	if got := len(env.deliveries(1)); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	if b.Stats().SelectorRejected != 1 {
		t.Fatalf("selectorRejected = %d", b.Stats().SelectorRejected)
	}
}

func TestInvalidSelectorRejected(t *testing.T) {
	b, env := newBroker(t, 0)
	mustOpen(t, b, 1)
	b.OnFrame(1, wire.Subscribe{SubID: 5, Dest: message.Topic("t"), Selector: "id <"})
	if ok, is := env.lastFrame(1).(wire.SubOK); !is || ok.SubID != -5 {
		t.Fatalf("bad selector reply = %v", env.lastFrame(1))
	}
	// The failed subscription must not deliver.
	pub(b, 1, message.Topic("t"), nil)
	if len(env.deliveries(1)) != 0 {
		t.Fatal("rejected subscription delivered")
	}
}

func TestDeliveredMessageIsSharedAndFrozen(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, topic, "")
	sent := pub(b, 2, topic, map[string]message.Value{"id": message.Int(1)})
	d := env.deliveries(1)[0]
	if d.Msg != sent {
		t.Fatal("zero-copy delivery must share the published message by reference")
	}
	if !sent.Frozen() {
		t.Fatal("broker did not freeze the accepted message")
	}
}

func TestAckReleasesMemory(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, topic, "")
	base := env.heap.Used()
	pub(b, 2, topic, nil)
	if env.heap.Used() <= base {
		t.Fatal("pending delivery did not charge memory")
	}
	if b.PendingCount() != 1 {
		t.Fatalf("pending = %d", b.PendingCount())
	}
	tag := env.deliveries(1)[0].Tag
	b.OnFrame(1, wire.Ack{SubID: 1, Tags: []int64{tag}})
	if env.heap.Used() != base {
		t.Fatalf("ack did not free memory: %d vs %d", env.heap.Used(), base)
	}
	if b.PendingCount() != 0 || b.Stats().Acked != 1 {
		t.Fatalf("pending=%d acked=%d", b.PendingCount(), b.Stats().Acked)
	}
	// Double-ack and unknown tags are harmless.
	b.OnFrame(1, wire.Ack{SubID: 1, Tags: []int64{tag, 999}})
	b.OnFrame(1, wire.Ack{SubID: 42, Tags: []int64{1}})
	if b.Stats().Acked != 1 {
		t.Fatal("double ack counted")
	}
}

func TestConnectionMemoryLimit(t *testing.T) {
	env := newFakeEnv(0)
	env.native = simproc.NewHeap("native", 1<<20, 0) // 1 MB thread budget
	b := New(env, DefaultConfig("b1"))
	opened := 0
	var refuseErr error
	for i := ConnID(1); i <= 10; i++ {
		if err := b.OnConnOpen(i); err != nil {
			refuseErr = err
			break
		}
		opened++
	}
	if opened != 4 {
		t.Fatalf("opened %d connections on 1MB/256KB, want 4", opened)
	}
	if !errors.Is(refuseErr, ErrConnRefused) {
		t.Fatalf("refusal error = %v", refuseErr)
	}
	if b.Stats().RefusedConns != 1 {
		t.Fatalf("refused = %d", b.Stats().RefusedConns)
	}
	// Closing one frees room for one more.
	b.OnConnClose(1)
	if err := b.OnConnOpen(99); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

func TestConnCloseCleansSubscriptions(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, topic, "")
	pub(b, 2, topic, nil) // one pending delivery
	base := env.heap.Used()
	b.OnConnClose(1)
	if env.heap.Used() >= base {
		t.Fatal("close did not free pending + connection memory")
	}
	// Publishing afterwards delivers nowhere.
	pub(b, 2, topic, nil)
	if b.Stats().Delivered != 1 {
		t.Fatalf("delivered = %d after close", b.Stats().Delivered)
	}
	if len(b.Topics()) != 0 {
		t.Fatal("topic survived with zero subscribers")
	}
}

func TestUnsubscribe(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 7, topic, "")
	b.OnFrame(1, wire.Unsubscribe{SubID: 7})
	pub(b, 2, topic, nil)
	if len(env.deliveries(1)) != 0 {
		t.Fatal("unsubscribed consumer received message")
	}
}

func TestDuplicateSubIDDropsConnection(t *testing.T) {
	b, env := newBroker(t, 0)
	mustOpen(t, b, 1)
	subscribe(t, b, env, 1, 7, message.Topic("t"), "")
	b.OnFrame(1, wire.Subscribe{SubID: 7, Dest: message.Topic("t2")})
	if !env.closed[1] {
		t.Fatal("duplicate sub id did not drop connection")
	}
}

func TestQueueRoundRobin(t *testing.T) {
	b, env := newBroker(t, 0)
	q := message.Queue("work")
	for i := ConnID(1); i <= 3; i++ {
		mustOpen(t, b, i)
	}
	subscribe(t, b, env, 1, 1, q, "")
	subscribe(t, b, env, 2, 2, q, "")
	for i := 0; i < 6; i++ {
		pub(b, 3, q, nil)
	}
	d1, d2 := len(env.deliveries(1)), len(env.deliveries(2))
	if d1 != 3 || d2 != 3 {
		t.Fatalf("round robin split %d/%d, want 3/3", d1, d2)
	}
}

func TestQueueBacklogDeliveredOnSubscribe(t *testing.T) {
	b, env := newBroker(t, 0)
	q := message.Queue("work")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	for i := 0; i < 4; i++ {
		pub(b, 2, q, nil)
	}
	if len(env.deliveries(1)) != 0 {
		t.Fatal("early delivery")
	}
	subscribe(t, b, env, 1, 1, q, "")
	if got := len(env.deliveries(1)); got != 4 {
		t.Fatalf("backlog drain = %d, want 4", got)
	}
}

func TestQueueSelectorSkipsToMatchingConsumer(t *testing.T) {
	b, env := newBroker(t, 0)
	q := message.Queue("work")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	mustOpen(t, b, 3)
	subscribe(t, b, env, 1, 1, q, "kind = 'a'")
	subscribe(t, b, env, 2, 2, q, "kind = 'b'")
	pub(b, 3, q, map[string]message.Value{"kind": message.String("b")})
	pub(b, 3, q, map[string]message.Value{"kind": message.String("b")})
	pub(b, 3, q, map[string]message.Value{"kind": message.String("c")}) // no taker
	if len(env.deliveries(1)) != 0 || len(env.deliveries(2)) != 2 {
		t.Fatalf("selector queue: %d/%d", len(env.deliveries(1)), len(env.deliveries(2)))
	}
}

func TestQueueBacklogCap(t *testing.T) {
	env := newFakeEnv(0)
	b := New(env, DefaultConfig("b1"))
	b.queueBacklogCap = 2
	mustOpen(t, b, 1)
	for i := 0; i < 5; i++ {
		pub(b, 1, message.Queue("q"), nil)
	}
	if b.Stats().DroppedBacklog != 3 {
		t.Fatalf("droppedBacklog = %d, want 3", b.Stats().DroppedBacklog)
	}
}

func TestDurableSubscriptionBuffersWhileOffline(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	// Disconnect; messages published now must buffer.
	b.OnConnClose(1)
	pub(b, 2, topic, nil)
	pub(b, 2, topic, nil)
	// Reconnect with the same durable name.
	mustOpen(t, b, 3)
	b.OnFrame(3, wire.Subscribe{SubID: 9, Dest: topic, Durable: true, DurableName: "d1"})
	if got := len(env.deliveries(3)); got != 2 {
		t.Fatalf("durable replay = %d, want 2", got)
	}
	// Unsubscribe destroys the durable state; nothing buffers afterwards.
	b.OnFrame(3, wire.Unsubscribe{SubID: 9})
	pub(b, 2, topic, nil)
	mustOpen(t, b, 4)
	b.OnFrame(4, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	if got := len(env.deliveries(4)); got != 0 {
		t.Fatalf("destroyed durable replayed %d", got)
	}
}

func TestDurableSecondActiveConsumerRejected(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1"})
	b.OnFrame(2, wire.Subscribe{SubID: 2, Dest: topic, Durable: true, DurableName: "d1"})
	if ok, is := env.lastFrame(2).(wire.SubOK); !is || ok.SubID != -2 {
		t.Fatalf("second durable consumer not rejected: %v", env.lastFrame(2))
	}
}

func TestDurableSelectorChangeResetsBacklog(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1", Selector: "id = 1"})
	b.OnConnClose(1)
	pub(b, 2, topic, map[string]message.Value{"id": message.Int(1)})
	// Re-attach with a different selector: JMS recreates the durable sub.
	mustOpen(t, b, 3)
	b.OnFrame(3, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d1", Selector: "id = 2"})
	if got := len(env.deliveries(3)); got != 0 {
		t.Fatalf("recreated durable replayed %d stale messages", got)
	}
}

func TestMessageExpiration(t *testing.T) {
	b, env := newBroker(t, 0)
	topic := message.Topic("t")
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, topic, "")
	env.now = 1000
	m := message.NewText("old")
	m.Dest = topic
	m.Expiration = 500 // already past
	b.OnFrame(2, wire.Publish{Seq: 1, Msg: m})
	if len(env.deliveries(1)) != 0 || b.Stats().Expired != 1 {
		t.Fatalf("expired message delivered; stats=%+v", b.Stats())
	}
}

func TestPingPong(t *testing.T) {
	b, env := newBroker(t, 0)
	mustOpen(t, b, 1)
	b.OnFrame(1, wire.Ping{Token: 42})
	if p, ok := env.lastFrame(1).(wire.Pong); !ok || p.Token != 42 {
		t.Fatalf("pong = %v", env.lastFrame(1))
	}
}

func TestClientClose(t *testing.T) {
	b, env := newBroker(t, 0)
	mustOpen(t, b, 1)
	b.OnFrame(1, wire.Close{})
	if !env.closed[1] {
		t.Fatal("Close frame did not close transport")
	}
	if b.Stats().Connections != 0 {
		t.Fatal("connection survived Close")
	}
}

func TestFramesOnUnknownConnIgnored(t *testing.T) {
	b, _ := newBroker(t, 0)
	b.OnFrame(99, wire.Publish{Seq: 1, Msg: message.NewText("x")}) // must not panic
	b.OnConnClose(99)
}

func TestDuplicateConnOpenPanics(t *testing.T) {
	b, _ := newBroker(t, 0)
	mustOpen(t, b, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate conn open did not panic")
		}
	}()
	_ = b.OnConnOpen(1)
}

func TestDeliveryOOMCountsDrop(t *testing.T) {
	env := newFakeEnv(100 << 10) // 100 KB message heap
	b := New(env, DefaultConfig("b1"))
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, message.Topic("t"), "")
	// Fill the heap with a big pending message so the next delivery OOMs.
	big := message.NewBytes(make([]byte, 90<<10))
	big.Dest = message.Topic("t")
	b.OnFrame(2, wire.Publish{Seq: 1, Msg: big})
	b.OnFrame(2, wire.Publish{Seq: 2, Msg: big})
	if b.Stats().DroppedOOM == 0 {
		t.Fatalf("expected OOM drop, stats=%+v", b.Stats())
	}
}

func TestTopicsAndPeakConnections(t *testing.T) {
	b, env := newBroker(t, 0)
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, message.Topic("a"), "")
	subscribe(t, b, env, 2, 2, message.Topic("b"), "")
	if got := len(b.Topics()); got != 2 {
		t.Fatalf("topics = %d", got)
	}
	b.OnConnClose(1)
	b.OnConnClose(2)
	st := b.Stats()
	if st.PeakConnections != 2 || st.Connections != 0 {
		t.Fatalf("peak=%d now=%d", st.PeakConnections, st.Connections)
	}
}

func TestInterestCallback(t *testing.T) {
	b, env := newBroker(t, 0)
	var events []string
	b.SetInterestFunc(func(topic string, add bool) {
		events = append(events, fmt.Sprintf("%s:%v", topic, add))
	})
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	subscribe(t, b, env, 1, 1, message.Topic("t"), "")
	subscribe(t, b, env, 2, 2, message.Topic("t"), "") // second sub: no event
	b.OnConnClose(1)                                   // still one sub: no event
	b.OnConnClose(2)                                   // last sub gone: event
	want := []string{"t:true", "t:false"}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("interest events = %v", events)
	}
}

// Property: after any sequence of publish/ack pairs, heap usage returns to
// the post-subscription baseline (no leaks in pending bookkeeping).
func TestPropertyNoMemoryLeak(t *testing.T) {
	f := func(sizes []uint8) bool {
		env := newFakeEnv(0)
		b := New(env, DefaultConfig("b1"))
		if err := b.OnConnOpen(1); err != nil {
			return false
		}
		if err := b.OnConnOpen(2); err != nil {
			return false
		}
		b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: message.Topic("t")})
		base := env.heap.Used()
		for i, s := range sizes {
			m := message.NewBytes(make([]byte, int(s)))
			m.Dest = message.Topic("t")
			b.OnFrame(2, wire.Publish{Seq: int64(i), Msg: m})
		}
		// Ack everything delivered.
		var tags []int64
		for _, d := range env.deliveries(1) {
			tags = append(tags, d.Tag)
		}
		b.OnFrame(1, wire.Ack{SubID: 1, Tags: tags})
		return env.heap.Used() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue semantics deliver each message exactly once across any
// number of consumers.
func TestPropertyQueueExactlyOnce(t *testing.T) {
	f := func(nConsumers uint8, nMsgs uint8) bool {
		nc := int(nConsumers%5) + 1
		nm := int(nMsgs)
		env := newFakeEnv(0)
		b := New(env, DefaultConfig("b1"))
		q := message.Queue("work")
		for i := 0; i < nc; i++ {
			if err := b.OnConnOpen(ConnID(i + 1)); err != nil {
				return false
			}
			b.OnFrame(ConnID(i+1), wire.Subscribe{SubID: 1, Dest: q})
		}
		if err := b.OnConnOpen(100); err != nil {
			return false
		}
		for i := 0; i < nm; i++ {
			m := message.NewText("x")
			m.Dest = q
			m.SetProperty("n", message.Int(int32(i)))
			b.OnFrame(100, wire.Publish{Seq: int64(i), Msg: m})
		}
		seen := make(map[int64]int)
		total := 0
		for i := 0; i < nc; i++ {
			for _, d := range env.deliveries(ConnID(i + 1)) {
				v, _ := d.Msg.Property("n")
				n, _ := v.AsLong()
				seen[n]++
				total++
			}
		}
		if total != nm {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPublishFanout10(b *testing.B) {
	env := newFakeEnv(0)
	br := New(env, DefaultConfig("b1"))
	topic := message.Topic("t")
	for i := ConnID(1); i <= 10; i++ {
		if err := br.OnConnOpen(i); err != nil {
			b.Fatal(err)
		}
		br.OnFrame(i, wire.Subscribe{SubID: 1, Dest: topic, Selector: "id<10000"})
	}
	if err := br.OnConnOpen(99); err != nil {
		b.Fatal(err)
	}
	m := message.NewMap()
	m.Dest = topic
	m.SetProperty("id", message.Int(5))
	m.MapSet("power", message.Double(1.5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.OnFrame(99, wire.Publish{Seq: int64(i), Msg: m})
		// Drain sent buffers so memory stays flat.
		for c := ConnID(1); c <= 10; c++ {
			for _, d := range env.deliveries(c) {
				br.OnFrame(c, wire.Ack{SubID: 1, Tags: []int64{d.Tag}})
			}
			env.sent[c] = env.sent[c][:0]
		}
	}
}
