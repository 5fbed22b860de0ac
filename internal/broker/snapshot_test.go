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

// Tests for the lock-free (snapshot) publish read path. The obligations
// mirror shard_test.go's: snapshot routing must be observably identical
// to locked routing for any single-goroutine operation sequence, and
// the lock meters must prove which path ran.

// clearLockMeters zeroes the contention-observability fields and the
// matching-index meters, which legitimately differ across read-path and
// match modes — that difference is the point of the meters. Everything
// else in Stats — including SelectorRejected, which the indexed path
// must bulk-account for skipped groups — must match exactly.
func clearLockMeters(s Stats) Stats {
	s.ReadLockAcquisitions = 0
	s.ShardLockAcquisitions = 0
	s.ShardLockContended = 0
	s.ShardLockWaitNs = 0
	s.MatchProgramEvals = 0
	s.MatchIndexCandidates = 0
	s.MatchGroupsSkipped = 0
	s.MatchDurablesSkipped = 0
	s.FanoutTasks = 0
	s.FanoutChunks = 0
	s.FanoutInlineRuns = 0
	s.EgressFlushes = 0
	s.EgressFrames = 0
	return s
}

// TestSnapshotLockedEquivalenceRandomized drives identical randomized
// operation sequences — connection churn, topic/queue/durable
// subscribes, durable recreates, unsubscribes, publishes, partial acks
// — through an 8-shard broker on the snapshot read path and one on the
// locked read path, from a single goroutine, then requires bit-identical
// frame transcripts, stats (lock meters aside), pending counts, heap
// usage and topic sets. Any index mutation missing its snapshot refresh
// shows up here as a routing divergence.
func TestSnapshotLockedEquivalenceRandomized(t *testing.T) {
	runRoutingEquivalence(t, func(cfg *Config) {}, func(cfg *Config) {
		cfg.LockedReadPath = true
	})
}

// runRoutingEquivalence drives the randomized operation storm through
// one 8-shard broker per config mutation and through the naive oracle
// (oracle_test.go). Every broker must deliver and buffer exactly what
// the oracle predicts, and the brokers must agree with each other on
// everything the oracle does not model: full frame transcripts, stats,
// pending counts, heap usage and topic sets.
func runRoutingEquivalence(t *testing.T, muts ...func(*Config)) {
	t.Helper()
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
		var envs []*fakeEnv
		var brokers []*Broker
		for _, mut := range muts {
			env := newFakeEnv(0)
			cfg := DefaultConfig("b")
			cfg.Shards = 8
			mut(&cfg)
			envs, brokers = append(envs, env), append(brokers, New(env, cfg))
		}
		orc := newOracle()
		both := func(fn func(b target)) {
			for _, b := range brokers {
				fn(b)
			}
			fn(orc)
		}
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
				frames := envs[0].sent[c]
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
					// NaN ids must route identically across all modes:
					// IEEE semantics match no Eq/Range selector, only
					// "id <> 50".
					props["id"] = message.Double(math.NaN())
				}
				both(func(b target) { publishOn(b, pubConn, id, dest, props) })
			}
		}

		conns := make([]ConnID, nextConn)
		for i := range conns {
			conns[i] = ConnID(i + 1)
		}
		for i, b := range brokers {
			orc.check(t, fmt.Sprintf("seed %d broker %d", seed, i), b, conns, envs[i].observed)
			requireSameBehaviour(t, fmt.Sprintf("seed %d broker 0 vs %d", seed, i), conns, brokers[0], envs[0], b, envs[i])
		}
	}
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
	if sa, sb := clearLockMeters(bA.Stats()), clearLockMeters(bB.Stats()); sa != sb {
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

// TestReadPathLockMeters pins the observable contract of the lock
// meters: topic publishes on the snapshot path take zero shard locks
// (ReadLockAcquisitions stays 0 and ShardLockAcquisitions does not
// move), while the locked baseline records exactly one read-path
// acquisition per topic publish.
func TestReadPathLockMeters(t *testing.T) {
	run := func(locked bool) (perPublishShardLocks uint64, readLocks uint64) {
		env := newFakeEnv(0)
		cfg := DefaultConfig("b")
		cfg.Shards = 4
		cfg.LockedReadPath = locked
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
			t.Fatalf("locked=%v: delivered %d of %d publishes", locked, got, n)
		}
		return (after.ShardLockAcquisitions - before.ShardLockAcquisitions) / n,
			after.ReadLockAcquisitions - before.ReadLockAcquisitions
	}

	if perPub, readLocks := run(false); perPub != 0 || readLocks != 0 {
		t.Fatalf("snapshot mode: %d shard locks per publish, %d read locks (want 0, 0)", perPub, readLocks)
	}
	if perPub, readLocks := run(true); perPub != 1 || readLocks != 50 {
		t.Fatalf("locked mode: %d shard locks per publish, %d read locks (want 1, 50)", perPub, readLocks)
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
