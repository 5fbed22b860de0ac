package broker

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for the lock-free (snapshot) publish read path: routing from
// the copy-on-write snapshot must deliver exactly what the naive oracle
// (oracle_test.go) predicts for any single-goroutine operation
// sequence, and topic publishes must take no shard lock.

// clearModeMeters zeroes the meters that legitimately differ between
// two brokers whose routing is identical: the shard-lock meters (shard
// count changes contention) and the fan-out/egress meters (inline vs
// pooled plan execution). Everything else in Stats must match exactly.
func clearModeMeters(s Stats) Stats {
	s.ShardLockAcquisitions = 0
	s.ShardLockContended = 0
	s.ShardLockWaitNs = 0
	s.FanoutTasks = 0
	s.FanoutChunks = 0
	s.FanoutInlineRuns = 0
	s.EgressFlushes = 0
	s.EgressFrames = 0
	return s
}

// TestRoutingOracleRandomized drives randomized operation sequences —
// connection churn, topic/queue/durable subscribes, durable recreates
// (including cross-shard moves), unsubscribes, publishes with NaN ids,
// partial acks — through a 1-shard broker, an 8-shard broker and the
// oracle from a single goroutine, then requires both brokers to have
// delivered and buffered exactly what the oracle predicts, and to agree
// with each other on what the oracle does not model (queue deliveries,
// acks, heap). Any index mutation missing its snapshot refresh, and any
// group or durable the matching index wrongly skips, shows up here as a
// routing divergence.
func TestRoutingOracleRandomized(t *testing.T) {
	selectors := []string{
		"", "TRUE", "1 = 1",
		"id < 50", "id >= 50",
		"name LIKE 'gen-%'", "id BETWEEN 20 AND 60",
		"region IN ('us', 'eu') AND id < 80",
		"id <> 50",      // residual key: the only ordered shape a NaN id matches
		"id <= 0.0/0.0", // NaN constant: never TRUE, Never key
	}
	var topics, queues []message.Destination
	for i := 0; i < 10; i++ {
		topics = append(topics, message.Topic(fmt.Sprintf("t%d", i)))
	}
	for i := 0; i < 4; i++ {
		queues = append(queues, message.Queue(fmt.Sprintf("q%d", i)))
	}

	for seed := int64(1); seed <= 6; seed++ {
		env1, env := newFakeEnv(0), newFakeEnv(0)
		cfg := DefaultConfig("b")
		b1 := New(env1, cfg)
		cfg.Shards = 8
		b := New(env, cfg)
		orc := newOracle()
		both := func(fn func(b target)) { fn(b1); fn(b); fn(orc) }
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
		acked := map[ConnID]int{}

		for op := 0; op < 600; op++ {
			switch r := rng.Intn(20); {
			case r < 1 && len(open) < 12:
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
			case r < 7: // subscribe a queue
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     queues[rng.Intn(len(queues))],
					Selector: selectors[rng.Intn(5)],
				}
				both(func(b target) { b.OnFrame(c, f) })
				live = append(live, subInfo{conn: c, id: nextSub})
			case r < 9: // durable attach/recreate (sometimes destroyed)
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				// Varying topic AND selector across attaches of the same
				// durable name exercises the recreate-on-change rule —
				// including cross-shard moves — against the snapshot
				// refresh sites.
				f := wire.Subscribe{
					SubID:       nextSub,
					Dest:        topics[rng.Intn(5)],
					Selector:    []string{"id < 70", "id < 30"}[rng.Intn(2)],
					Durable:     true,
					DurableName: fmt.Sprintf("dur-%d", rng.Intn(3)),
				}
				both(func(b target) { b.OnFrame(c, f) })
				if rng.Intn(3) == 0 {
					both(func(b target) { b.OnFrame(c, wire.Unsubscribe{SubID: nextSub}) })
				} else if rng.Intn(2) == 0 {
					// Disconnect path: the durable keeps buffering.
					both(func(b target) { b.OnConnClose(c) })
					for i, oc := range open {
						if oc == c {
							open = append(open[:i], open[i+1:]...)
							break
						}
					}
					kept := live[:0]
					for _, s := range live {
						if s.conn != c {
							kept = append(kept, s)
						}
					}
					live = kept
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
				frames := env.sent[c]
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
				if rng.Intn(8) == 0 {
					// NaN ids: IEEE semantics match no Eq/Range selector,
					// only "id <> 50".
					props["id"] = message.Double(math.NaN())
				}
				both(func(b target) { publishOn(b, pubConn, id, dest, props) })
			}
		}

		conns := make([]ConnID, nextConn)
		for i := range conns {
			conns[i] = ConnID(i + 1)
		}
		orc.check(t, fmt.Sprintf("seed %d, 1 shard", seed), b1, conns, env1.observed)
		orc.check(t, fmt.Sprintf("seed %d, 8 shards", seed), b, conns, env.observed)
		requireSameBehaviour(t, fmt.Sprintf("seed %d, 1 vs 8 shards", seed), conns, b1, env1, b, env)
	}
}

// TestTopicPublishTakesNoShardLock pins the read path's observable
// contract: a topic publish routes from the snapshot, so the shard-lock
// meter does not move while messages are delivered.
func TestTopicPublishTakesNoShardLock(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	b.OnFrame(2, wire.Subscribe{SubID: 1, Dest: message.Topic("t")})
	before := b.Stats()
	const n = 50
	for i := 0; i < n; i++ {
		publishOn(b, 1, fmt.Sprintf("m%d", i), message.Topic("t"), nil)
	}
	after := b.Stats()
	if got := after.Delivered - before.Delivered; got != n {
		t.Fatalf("delivered %d of %d publishes", got, n)
	}
	if got := after.ShardLockAcquisitions - before.ShardLockAcquisitions; got != 0 {
		t.Fatalf("%d topic publishes took %d shard locks, want 0", n, got)
	}
}

// TestSnapshotSeesRestoredDurables covers the recovery refresh sites: a
// durable restored through the journal Restore API must buffer snapshot-
// path publishes (RestoreDurable), and a restored-then-dropped one must
// not (RestoreDurableDrop).
func TestSnapshotSeesRestoredDurables(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	if err := b.RestoreDurable("keep", "t", "id < 50"); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreDurable("drop", "t", ""); err != nil {
		t.Fatal(err)
	}
	b.RestoreDurableDrop("drop")

	mustOpen(t, b, 1)
	publishOn(b, 1, "hit", message.Topic("t"), map[string]message.Value{"id": message.Int(7)})
	publishOn(b, 1, "miss", message.Topic("t"), map[string]message.Value{"id": message.Int(90)})

	dumps := b.DumpDurables()
	if len(dumps) != 1 || dumps[0].Name != "keep" {
		t.Fatalf("durable dump: %+v", dumps)
	}
	if len(dumps[0].Backlog) != 1 || dumps[0].Backlog[0].ID != "hit" {
		t.Fatalf("restored durable backlog: %+v", dumps[0].Backlog)
	}
}
