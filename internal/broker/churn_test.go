package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// TestSnapshotChurnEquivalence is the randomized churn storm for the
// lock-free read path: concurrent subscribe/unsubscribe/resubscribe/
// durable-recreate churn over many distinct selectors — and with it
// concurrent route and matching-index patches, merges and compactions —
// while publishers hammer the same topics. Delivery *during* the storm
// is inherently racy (a publish concurrent with a subscribe may
// legitimately land on either side of it), so the storm phase asserts
// safety only — no races under -race, balanced heap at teardown, no
// lost allocations from publishes racing drops. Then the storm
// quiesces, a deterministic subscriber set attaches, and a known
// message batch is published from one goroutine: the phase-2 deliveries
// must be exactly what a fresh oracle predicts, proving the churned-up
// snapshot state converged to the state of a broker that never saw the
// storm. It runs at the production compaction threshold and again
// compacting on every removal.
func TestSnapshotChurnEquivalence(t *testing.T) {
	t.Run("production", snapshotChurnStorm)
	t.Run("compact-every-removal", func(t *testing.T) {
		forceCompaction(t)
		snapshotChurnStorm(t)
	})
}

func snapshotChurnStorm(t *testing.T) {
	const (
		churners  = 6
		pubs      = 4
		stormOps  = 300
		stormMsgs = 200
		probeMsgs = 120
	)
	topics := make([]message.Destination, 6)
	for i := range topics {
		topics[i] = message.Topic(fmt.Sprintf("t%d", i))
	}

	env := newRaceEnv()
	cfg := DefaultConfig("churn")
	cfg.Shards = 8
	b := New(env, cfg)

	// --- Phase 1: churn storm under concurrent publishing.
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			c := ConnID(100 + g)
			if err := b.OnConnOpen(c); err != nil {
				t.Error(err)
				return
			}
			nextSub := int64(0)
			var live []int64
			// hotSub subscribes a distinct selector on the hot topic t0,
			// which every churner grows and shrinks at once.
			hotSub := func() {
				nextSub++
				b.OnFrame(c, wire.Subscribe{SubID: nextSub, Dest: topics[0], Selector: distinctSelector(rng)})
				live = append(live, nextSub)
			}
			for op := 0; op < stormOps; op++ {
				switch r := rng.Intn(10); {
				case r < 2: // subscribe (sometimes durable: recreate storms)
					nextSub++
					f := wire.Subscribe{
						SubID:    nextSub,
						Dest:     topics[rng.Intn(len(topics))],
						Selector: []string{"", "id < 50", "id >= 50"}[rng.Intn(3)],
					}
					if rng.Intn(3) == 0 {
						f.Durable = true
						f.DurableName = fmt.Sprintf("dur-%d", g)
					}
					b.OnFrame(c, f)
					live = append(live, nextSub)
				case r < 4:
					hotSub()
				case r < 8: // unsubscribe; half the time resubscribe
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					b.OnFrame(c, wire.Unsubscribe{SubID: live[i]})
					live = append(live[:i], live[i+1:]...)
					if rng.Intn(2) == 0 {
						hotSub()
					}
				default: // ack deliveries so far
					env.drainAcks(b, c)
				}
			}
			env.drainAcks(b, c)
			b.OnConnClose(c)
		}(g)
	}
	for g := 0; g < pubs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			c := ConnID(200 + g)
			if err := b.OnConnOpen(c); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < stormMsgs; i++ {
				m := message.NewText("x")
				m.ID = fmt.Sprintf("p1-%d-%d", g, i)
				m.Dest = topics[rng.Intn(len(topics))]
				m.SetProperty("id", message.Int(int32(rng.Intn(100))))
				b.OnFrame(c, wire.Publish{Seq: int64(i), Msg: m})
			}
			b.OnConnClose(c)
		}(g)
	}
	wg.Wait()

	// Destroy the churners' durables so leftover backlogs can't leak
	// into phase 2 (their content is storm-order dependent).
	sweep := ConnID(900)
	if err := b.OnConnOpen(sweep); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < churners; g++ {
		id := int64(g + 1)
		b.OnFrame(sweep, wire.Subscribe{
			SubID: id, Dest: message.Topic("sweep"), Selector: "FALSE",
			Durable: true, DurableName: fmt.Sprintf("dur-%d", g),
		})
		b.OnFrame(sweep, wire.Unsubscribe{SubID: id})
	}
	env.drainAcks(b, sweep)
	b.OnConnClose(sweep)

	// --- Phase 2: deterministic probe over the quiesced broker. Every
	// storm connection is closed and every durable destroyed, so a
	// fresh oracle fed only the probe ops predicts the deliveries.
	orc := newOracle()
	orc.rejected = b.Stats().SelectorRejected // the storm's rejections predate the oracle
	both := func(fn func(b target)) { fn(b); fn(orc) }
	probes := []struct {
		conn ConnID
		dest message.Destination
		sel  string
	}{
		{301, topics[0], ""},
		{302, topics[0], "id < 50"},
		{303, topics[1], "id >= 50"},
		{304, topics[2], ""},
		{305, topics[3], "id < 25"},
	}
	var probeConns []ConnID
	for i, p := range probes {
		probeConns = append(probeConns, p.conn)
		both(func(b target) {
			if err := b.OnConnOpen(p.conn); err != nil {
				t.Fatal(err)
			}
			b.OnFrame(p.conn, wire.Subscribe{SubID: int64(i + 1), Dest: p.dest, Selector: p.sel})
		})
	}
	pubConn := ConnID(400)
	both(func(b target) {
		if err := b.OnConnOpen(pubConn); err != nil {
			t.Fatal(err)
		}
	})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < probeMsgs; i++ {
		m := message.NewText("probe")
		m.ID = fmt.Sprintf("p2-%d", i)
		m.Dest = topics[rng.Intn(4)]
		m.SetProperty("id", message.Int(int32(rng.Intn(100))))
		both(func(b target) { b.OnFrame(pubConn, wire.Publish{Seq: int64(i), Msg: m}) })
	}

	// Check each probe's ordered phase-2 deliveries, then tear
	// everything down; the shared heap must balance to zero or a
	// snapshot-path delivery leaked past a drop.
	orc.check(t, "probe", b, probeConns, env.observed)
	for _, p := range probes {
		env.drainAcks(b, p.conn)
		b.OnConnClose(p.conn)
	}
	b.OnConnClose(pubConn)
	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap not balanced after teardown: %d bytes live", used)
	}
	if n := b.PendingCount(); n != 0 {
		t.Fatalf("pending after teardown: %d", n)
	}
}
