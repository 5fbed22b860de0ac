package brokerwal_test

import (
	"fmt"
	"strings"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/brokerwal"
	"gridmon/internal/message"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
	"gridmon/internal/wire"
)

// nopEnv satisfies broker.Env with unlimited resources and no output
// capture — these tests only care about the broker's durable state.
type nopEnv struct{}

func (nopEnv) Now() int64                     { return 0 }
func (nopEnv) Send(broker.ConnID, wire.Frame) {}
func (nopEnv) CloseConn(broker.ConnID)        {}
func (nopEnv) AllocConn() error               { return nil }
func (nopEnv) FreeConn()                      {}
func (nopEnv) Alloc(int64) error              { return nil }
func (nopEnv) Free(int64)                     {}

func newBroker() *broker.Broker {
	return broker.New(nopEnv{}, broker.DefaultConfig("test"))
}

func topic(name string) message.Destination {
	return message.Destination{Kind: message.TopicKind, Name: name}
}

func queue(name string) message.Destination {
	return message.Destination{Kind: message.QueueKind, Name: name}
}

func openConn(t *testing.T, b *broker.Broker, id broker.ConnID) {
	t.Helper()
	if err := b.OnConnOpen(id); err != nil {
		t.Fatalf("open conn %d: %v", id, err)
	}
	b.OnFrame(id, wire.Connect{ClientID: fmt.Sprintf("c%d", id)})
}

func publish(b *broker.Broker, id broker.ConnID, dest message.Destination, seq int64, text string) {
	m := message.NewText(text)
	m.Dest = dest
	b.OnFrame(id, wire.Publish{Seq: seq, Msg: m})
}

// fingerprint renders the broker's persistent state — durables with
// backlogs, queue backlogs — as a canonical string for equality checks.
func fingerprint(b *broker.Broker) string {
	var sb strings.Builder
	for _, dd := range b.DumpDurables() {
		fmt.Fprintf(&sb, "D %s %s [%s]\n", dd.Name, dd.Topic, dd.Selector)
		for _, m := range dd.Backlog {
			fmt.Fprintf(&sb, "  %x\n", wire.MarshalMessage(nil, m))
		}
	}
	for _, qd := range b.DumpQueues() {
		fmt.Fprintf(&sb, "Q %s\n", qd.Name)
		for _, m := range qd.Backlog {
			fmt.Fprintf(&sb, "  %x\n", wire.MarshalMessage(nil, m))
		}
	}
	return sb.String()
}

// driveMixedLoad exercises every journaled mutation: durable create,
// disconnected buffering, backlog flush on reconnect, unsubscribe,
// queue backlog growth and partial drain.
func driveMixedLoad(t *testing.T, b *broker.Broker) {
	t.Helper()
	// d1: created, disconnected, buffers two messages.
	openConn(t, b, 1)
	b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic("alerts"), Durable: true, DurableName: "d1"})
	b.OnConnClose(1)
	openConn(t, b, 2)
	publish(b, 2, topic("alerts"), 1, "a1")
	publish(b, 2, topic("alerts"), 2, "a2")

	// d2: created, buffers one, reconnects (flush), disconnects again,
	// buffers one more — the survivor.
	openConn(t, b, 3)
	b.OnFrame(3, wire.Subscribe{SubID: 1, Dest: topic("metrics"), Durable: true, DurableName: "d2"})
	b.OnConnClose(3)
	publish(b, 2, topic("metrics"), 3, "m1")
	openConn(t, b, 4)
	b.OnFrame(4, wire.Subscribe{SubID: 1, Dest: topic("metrics"), Durable: true, DurableName: "d2"})
	b.OnConnClose(4)
	publish(b, 2, topic("metrics"), 4, "m2")

	// d3: created then destroyed by Unsubscribe — must not survive.
	openConn(t, b, 5)
	b.OnFrame(5, wire.Subscribe{SubID: 7, Dest: topic("gone"), Durable: true, DurableName: "d3"})
	b.OnFrame(5, wire.Unsubscribe{SubID: 7})
	b.OnConnClose(5)

	// Queue q1: three stored, then a consumer drains them all and
	// disconnects before two more arrive.
	publish(b, 2, queue("jobs"), 5, "j1")
	publish(b, 2, queue("jobs"), 6, "j2")
	publish(b, 2, queue("jobs"), 7, "j3")
	openConn(t, b, 6)
	b.OnFrame(6, wire.Subscribe{SubID: 1, Dest: queue("jobs")})
	b.OnConnClose(6)
	publish(b, 2, queue("jobs"), 8, "j4")
	publish(b, 2, queue("jobs"), 9, "j5")
	b.OnConnClose(2)
}

func wantMixedLoadState(t *testing.T, b *broker.Broker) {
	t.Helper()
	dds := b.DumpDurables()
	if len(dds) != 2 || dds[0].Name != "d1" || dds[1].Name != "d2" {
		t.Fatalf("durables = %+v, want d1, d2", dds)
	}
	if len(dds[0].Backlog) != 2 {
		t.Errorf("d1 backlog = %d messages, want 2", len(dds[0].Backlog))
	}
	if len(dds[1].Backlog) != 1 {
		t.Errorf("d2 backlog = %d messages, want 1 (flush must have cleared m1)", len(dds[1].Backlog))
	}
	qds := b.DumpQueues()
	if len(qds) != 1 || qds[0].Name != "jobs" || len(qds[0].Backlog) != 2 {
		t.Fatalf("queues = %+v, want jobs with 2 messages", qds)
	}
}

// TestReplayEquivalence journals a mixed load, crashes (no clean
// shutdown, unsynced data kept — the kindest crash), and checks the
// recovered broker's state is exactly the original's.
func TestReplayEquivalence(t *testing.T) {
	fsys := walfs.NewMem()
	b := newBroker()
	p, info, err := brokerwal.Open(fsys, wal.Options{}, b)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info.Records != 0 {
		t.Fatalf("fresh open replayed %d records", info.Records)
	}
	driveMixedLoad(t, b)
	wantMixedLoadState(t, b)
	want := fingerprint(b)
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b2 := newBroker()
	p2, info, err := brokerwal.Open(fsys, wal.Options{}, b2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if info.Records == 0 {
		t.Fatal("reopen replayed nothing")
	}
	if info.CleanStart {
		t.Fatal("reopen claimed a clean start after a plain Close")
	}
	wantMixedLoadState(t, b2)
	if got := fingerprint(b2); got != want {
		t.Errorf("recovered state differs:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestCleanShutdownRoundtrip closes cleanly and checks the reopen is a
// clean start (no segment scan) with identical state, and that the
// compaction snapshot alone carries everything.
func TestCleanShutdownRoundtrip(t *testing.T) {
	fsys := walfs.NewMem()
	b := newBroker()
	p, _, err := brokerwal.Open(fsys, wal.Options{}, b)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveMixedLoad(t, b)
	want := fingerprint(b)
	if err := p.CloseClean(); err != nil {
		t.Fatalf("close clean: %v", err)
	}

	b2 := newBroker()
	p2, info, err := brokerwal.Open(fsys, wal.Options{}, b2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if !info.CleanStart {
		t.Error("reopen after CloseClean should be a clean start")
	}
	if got := fingerprint(b2); got != want {
		t.Errorf("recovered state differs:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestRecoveryChain runs load → crash → recover three times over the
// same log, with small segments forcing rotation, verifying state
// carries across generations and the open-time compaction snapshot
// doesn't lose or duplicate anything.
func TestRecoveryChain(t *testing.T) {
	fsys := walfs.NewMem()
	var want string
	for round := 0; round < 3; round++ {
		b := newBroker()
		p, _, err := brokerwal.Open(fsys, wal.Options{SegmentBytes: 256}, b)
		if err != nil {
			t.Fatalf("round %d open: %v", round, err)
		}
		if round > 0 {
			if got := fingerprint(b); got != want {
				t.Fatalf("round %d recovered state differs:\ngot:\n%swant:\n%s", round, got, want)
			}
		}
		// Each round adds one more buffered message to a per-round durable.
		id := broker.ConnID(round*10 + 1)
		openConn(t, b, id)
		b.OnFrame(id, wire.Subscribe{SubID: 1, Dest: topic("t"), Durable: true,
			DurableName: fmt.Sprintf("d%d", round)})
		b.OnConnClose(id)
		pubID := broker.ConnID(round*10 + 2)
		openConn(t, b, pubID)
		for i := 0; i < 5; i++ {
			publish(b, pubID, topic("t"), int64(i), fmt.Sprintf("r%d-%d", round, i))
		}
		b.OnConnClose(pubID)
		want = fingerprint(b)
		if err := p.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
	b := newBroker()
	p, _, err := brokerwal.Open(fsys, wal.Options{SegmentBytes: 256}, b)
	if err != nil {
		t.Fatalf("final open: %v", err)
	}
	defer p.Close()
	if got := fingerprint(b); got != want {
		t.Errorf("final state differs:\ngot:\n%swant:\n%s", got, want)
	}
	if n := len(b.DumpDurables()); n != 3 {
		t.Errorf("got %d durables, want 3", n)
	}
}

// TestCrashPointPrefix drives a fixed append-only load through a
// fault-injecting fs that fails at every possible I/O operation in
// turn, then recovers from what reached the synced prefix and asserts
// the durable's backlog is always a strict prefix of the published
// sequence — never a gap, never a reorder, never an invention.
func TestCrashPointPrefix(t *testing.T) {
	const msgs = 8
	drive := func(b *broker.Broker) {
		openConn(t, b, 1)
		b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic("t"), Durable: true, DurableName: "d"})
		b.OnConnClose(1)
		openConn(t, b, 2)
		for i := 0; i < msgs; i++ {
			publish(b, 2, topic("t"), int64(i), fmt.Sprintf("m%d", i))
		}
		b.OnConnClose(2)
	}

	// Probe: count the I/O ops of a full fault-free run.
	probe := walfs.NewFault(walfs.NewMem(), 1<<30, 0)
	{
		b := newBroker()
		p, _, err := brokerwal.Open(probe, wal.Options{Fsync: true, SegmentBytes: 512}, b)
		if err != nil {
			t.Fatalf("probe open: %v", err)
		}
		drive(b)
		_ = p.Close()
	}
	totalOps := probe.Ops()
	if totalOps < msgs {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for failAt := 1; failAt <= totalOps; failAt++ {
		for _, torn := range []int{0, 3} {
			mem := walfs.NewMem()
			fault := walfs.NewFault(mem, failAt, torn)
			b := newBroker()
			p, _, err := brokerwal.Open(fault, wal.Options{Fsync: true, SegmentBytes: 512}, b)
			if err != nil {
				// Injected during the initial (empty) open — nothing to
				// recover, nothing to check.
				continue
			}
			drive(b)
			_ = p.Close()
			mem.Crash()

			b2 := newBroker()
			p2, _, err := brokerwal.Open(mem, wal.Options{Fsync: true, SegmentBytes: 512}, b2)
			if err != nil {
				t.Fatalf("failAt=%d torn=%d: recovery failed: %v", failAt, torn, err)
			}
			dds := b2.DumpDurables()
			if len(dds) > 1 {
				t.Fatalf("failAt=%d torn=%d: %d durables, want ≤1", failAt, torn, len(dds))
			}
			if len(dds) == 1 {
				for i, m := range dds[0].Backlog {
					if got, want := m.Text(), fmt.Sprintf("m%d", i); got != want {
						t.Fatalf("failAt=%d torn=%d: backlog[%d] = %q, want %q (prefix violated)",
							failAt, torn, i, got, want)
					}
				}
				if len(dds[0].Backlog) > msgs {
					t.Fatalf("failAt=%d torn=%d: backlog longer than published", failAt, torn)
				}
			}
			_ = p2.Close()
		}
	}
}

// TestQueueDrainReplay checks the drain record path specifically: a
// selective consumer removes a strict subset of the backlog (middle
// elements), and recovery reproduces exactly the remainder.
func TestQueueDrainReplay(t *testing.T) {
	fsys := walfs.NewMem()
	b := newBroker()
	p, _, err := brokerwal.Open(fsys, wal.Options{}, b)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	openConn(t, b, 1)
	for i := 0; i < 6; i++ {
		m := message.NewText(fmt.Sprintf("j%d", i))
		m.Dest = queue("q")
		m.SetProperty("pick", message.Long(int64(i%2)))
		b.OnFrame(1, wire.Publish{Seq: int64(i), Msg: m})
	}
	// A consumer that only matches odd entries drains j1, j3, j5.
	openConn(t, b, 2)
	b.OnFrame(2, wire.Subscribe{SubID: 1, Dest: queue("q"), Selector: "pick = 1"})
	b.OnConnClose(2)
	b.OnConnClose(1)
	want := fingerprint(b)
	qds := b.DumpQueues()
	if len(qds) != 1 || len(qds[0].Backlog) != 3 {
		t.Fatalf("queues after drain = %+v, want q with 3 messages", qds)
	}
	_ = p.Close()

	b2 := newBroker()
	p2, _, err := brokerwal.Open(fsys, wal.Options{}, b2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if got := fingerprint(b2); got != want {
		t.Errorf("recovered state differs:\ngot:\n%swant:\n%s", got, want)
	}
	for i, m := range b2.DumpQueues()[0].Backlog {
		if got, want := m.Text(), fmt.Sprintf("j%d", i*2); got != want {
			t.Errorf("backlog[%d] = %q, want %q", i, got, want)
		}
	}
}

// TestJournalZeroAlloc pins the journal callbacks on queue_wal's path —
// a queue publish with a consumer attached journals QueueStored then
// QueueDrained — and a durable store at zero allocations, pooled encode
// buffer included.
func TestJournalZeroAlloc(t *testing.T) {
	b := newBroker()
	p, _, err := brokerwal.Open(walfs.NewMem(), wal.Options{}, b)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer p.Close()
	m := message.NewText("job")
	m.Dest = queue("jobs")
	m.Freeze()
	removed := []int{0}
	if allocs := testing.AllocsPerRun(200, func() {
		p.QueueStored("jobs", m)
		p.QueueDrained("jobs", removed)
	}); allocs != 0 {
		t.Errorf("QueueStored+QueueDrained allocate %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.DurableStored("d", m) }); allocs != 0 {
		t.Errorf("DurableStored allocates %v times, want 0", allocs)
	}
}
