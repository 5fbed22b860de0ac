package broker

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// forceCompaction makes every route-slot removal renumber its topic's
// slots and matching index, for the rest of the test.
func forceCompaction(t *testing.T) {
	prev := compactAt
	compactAt = func(int) int { return 1 }
	t.Cleanup(func() { compactAt = prev })
}

// distinctSelector draws from a family of per-subscription selectors —
// `id = k` and `id BETWEEN k AND k+3` — so a topic carries dozens of
// selector groups whose slots come and go, and its matching index
// patches, merges and compacts.
func distinctSelector(rng *rand.Rand) string {
	k := rng.Intn(100)
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("id = %d", k)
	}
	return fmt.Sprintf("id BETWEEN %d AND %d", k, k+3)
}

// TestRoutingOracleRandomized drives randomized operation sequences —
// connection churn, topic/queue/durable subscribes, durable recreates
// (including cross-shard moves), unsubscribes and resubscribes over many
// distinct selectors, publishes with NaN ids, partial acks — through a
// 1-shard broker, an 8-shard broker and the oracle from a single
// goroutine, then requires both brokers to have delivered and buffered
// exactly what the oracle predicts, and to agree with each other on what
// the oracle does not model (queue deliveries, acks, heap). Any index
// mutation missing its snapshot refresh, any group or durable the
// matching index wrongly skips, and any slot a patch or compaction
// misnumbers shows up here as a routing divergence. Every seed runs at
// the production compaction threshold and again compacting on every
// removal.
func TestRoutingOracleRandomized(t *testing.T) {
	t.Run("production", func(t *testing.T) { routingOracleSeeds(t) })
	t.Run("compact-every-removal", func(t *testing.T) {
		forceCompaction(t)
		routingOracleSeeds(t)
	})
}

func routingOracleSeeds(t *testing.T) {
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
		// Conn 2 is never closed and never picked at random: it holds
		// the distinct-selector subscriptions, so the two hot topics grow
		// dozens of selector groups whose slots come and go.
		openConn()
		hotConn := open[1]
		open = open[:1]

		type subInfo struct {
			conn ConnID
			id   int64
		}
		var live []subInfo
		nextSub := int64(0)
		acked := map[ConnID]int{}
		hotSub := func() {
			nextSub++
			f := wire.Subscribe{SubID: nextSub, Dest: topics[rng.Intn(2)], Selector: distinctSelector(rng)}
			both(func(b target) { b.OnFrame(hotConn, f) })
			live = append(live, subInfo{conn: hotConn, id: nextSub})
		}

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
			case r < 4: // subscribe a distinct selector on a hot topic
				hotSub()
			case r < 5: // subscribe a topic
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
			case r < 6: // subscribe a queue
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
			case r < 8: // durable attach/recreate (sometimes destroyed)
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
			case r < 12: // unsubscribe; half the time resubscribe a hot topic
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				s := live[i]
				live = append(live[:i], live[i+1:]...)
				both(func(b target) { b.OnFrame(s.conn, wire.Unsubscribe{SubID: s.id}) })
				if rng.Intn(2) == 0 {
					hotSub()
				}
			case r < 13: // ack a batch of this conn's unacked deliveries
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

// TestSubscribeChurnAllocsFlat is the quadratic-regression guard for the
// route's write side: unsubscribing and resubscribing one selector on a
// topic with n distinct selector groups patches the route and its
// matching index, so its allocations do not grow with n. It also pins
// that tombstoned slots are not reported as groups.
func TestSubscribeChurnAllocsFlat(t *testing.T) {
	topic := message.Topic("hot")
	perPair := func(n int) float64 {
		b, env := newBroker(t, 0)
		mustOpen(t, b, 1)
		for k := 0; k < n; k++ {
			b.OnFrame(1, wire.Subscribe{SubID: int64(k + 1), Dest: topic, Selector: fmt.Sprintf("id = %d", k)})
		}
		// Tombstone a slot that stays a hole through the churn below.
		b.OnFrame(1, wire.Unsubscribe{SubID: 1})
		id := int64(n + 1)
		b.OnFrame(1, wire.Subscribe{SubID: id, Dest: topic, Selector: "id = -1"})
		allocs := testing.AllocsPerRun(200, func() {
			b.OnFrame(1, wire.Unsubscribe{SubID: id})
			id++
			b.OnFrame(1, wire.Subscribe{SubID: id, Dest: topic, Selector: "id = -1"})
			env.sent[1] = env.sent[1][:0]
		})
		if got := b.TopicSelectorGroups("hot"); got != n {
			t.Fatalf("n=%d: TopicSelectorGroups = %d, want %d live groups", n, got, n)
		}
		if got := b.TopicSubscribers("hot"); got != n {
			t.Fatalf("n=%d: TopicSubscribers = %d, want %d", n, got, n)
		}
		return allocs
	}
	small, large := perPair(100), perPair(1000)
	t.Logf("allocations per unsubscribe+subscribe: %.1f at 100 groups, %.1f at 1000", small, large)
	if large > 1.5*small {
		t.Fatalf("unsubscribe+subscribe allocates %.1f at 1000 groups vs %.1f at 100: grows with the topic", large, small)
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
// path publishes (RestoreDurable), one restored again with a new
// selector must buffer by the new one (its route slot is replaced while
// it keeps buffering), and a restored-then-dropped one must not
// (RestoreDurableDrop).
func TestSnapshotSeesRestoredDurables(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	for _, r := range []struct{ name, sel string }{
		{"keep", "id < 50"},
		{"drop", ""},
		{"resel", "id < 50"},
		{"resel", "id >= 50"},
	} {
		if err := b.RestoreDurable(r.name, "t", r.sel); err != nil {
			t.Fatal(err)
		}
	}
	b.RestoreDurableDrop("drop")

	mustOpen(t, b, 1)
	publishOn(b, 1, "low", message.Topic("t"), map[string]message.Value{"id": message.Int(7)})
	publishOn(b, 1, "high", message.Topic("t"), map[string]message.Value{"id": message.Int(90)})

	got := map[string][]string{}
	for _, d := range b.DumpDurables() {
		got[d.Name] = nil
		for _, m := range d.Backlog {
			got[d.Name] = append(got[d.Name], m.ID)
		}
	}
	if want := map[string][]string{"keep": {"low"}, "resel": {"high"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored durable backlogs %v, want %v", got, want)
	}
}
