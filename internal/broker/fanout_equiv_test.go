package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Per-frame-vs-batched fan-out equivalence: the broker promises that
// for any single caller, per-connection delivery transcripts and every
// counter but the egress meters are identical whether a plan runs as
// the per-frame loop or as batched per-connection runs. The storm drives randomized subscribe/publish/ack/unsubscribe/
// connection-churn traffic through one broker per mode and through the
// oracle — same seed, same ops — requiring every mode to deliver what
// the oracle predicts, and the modes to agree on stats, pending and
// heap.

// fanoutStormSelectors gives the storm a mix of fast-set and selector
// subscriptions, so plans mix fast members with group members.
var fanoutStormSelectors = []string{"", "", "id < 500", "id >= 300", "region = 'eu'"}

// runFanoutStorm drives the deterministic storm against one broker and
// the oracle, checks the broker against the oracle's prediction, and
// returns the broker and its env for cross-mode comparison. Conns
// 1..nConns are subscribers; conn 100 publishes. threshold overrides
// the broker's batching threshold (0 keeps batchFanoutThreshold).
func runFanoutStorm(t *testing.T, seed int64, serialEnv bool, threshold int) (*Broker, *raceEnv) {
	t.Helper()
	env := newRaceEnv()
	cfg := DefaultConfig("fanstorm")
	cfg.Shards = 4
	cfg.SerialEnv = serialEnv
	b := New(env, cfg)
	if threshold > 0 {
		b.fanThreshold = threshold
	}
	orc := newOracle()
	both := func(fn func(b target)) { fn(b); fn(orc) }

	const nConns = 6
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"t0", "t1", "t2"}
	open := make(map[ConnID]bool)
	mustOpenBoth := func(c ConnID) {
		both(func(b target) {
			if err := b.OnConnOpen(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	for c := ConnID(1); c <= nConns; c++ {
		mustOpenBoth(c)
		open[c] = true
	}
	mustOpenBoth(100)
	type subRef struct {
		conn ConnID
		id   int64
	}
	var subs []subRef
	nextSub := int64(0)

	for op := 0; op < 900; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // subscribe
			c := ConnID(rng.Intn(nConns) + 1)
			if !open[c] {
				continue
			}
			nextSub++
			f := wire.Subscribe{
				SubID:    nextSub,
				Dest:     message.Topic(topics[rng.Intn(len(topics))]),
				Selector: fanoutStormSelectors[rng.Intn(len(fanoutStormSelectors))],
			}
			both(func(b target) { b.OnFrame(c, f) })
			subs = append(subs, subRef{conn: c, id: nextSub})
		case k < 8: // publish + ack feedback
			m := message.NewText("payload")
			m.ID = fmt.Sprintf("ID:storm/%d", op)
			m.Dest = message.Topic(topics[rng.Intn(len(topics))])
			m.SetProperty("id", message.Int(int32(rng.Intn(1000))))
			if rng.Intn(2) == 0 {
				m.SetProperty("region", message.String("eu"))
			} else {
				m.SetProperty("region", message.String("us"))
			}
			both(func(b target) { b.OnFrame(100, wire.Publish{Seq: int64(op), Msg: m}) })
			if rng.Intn(3) == 0 {
				for c := ConnID(1); c <= nConns; c++ {
					if open[c] {
						env.drainAcks(b, c)
					}
				}
			}
		case k < 9: // unsubscribe a random live subscription
			if len(subs) == 0 {
				continue
			}
			i := rng.Intn(len(subs))
			s := subs[i]
			subs = append(subs[:i], subs[i+1:]...)
			if open[s.conn] {
				both(func(b target) { b.OnFrame(s.conn, wire.Unsubscribe{SubID: s.id}) })
			}
		default: // bounce a connection (subs drop, deliveries stop)
			c := ConnID(rng.Intn(nConns) + 1)
			if open[c] {
				env.drainAcks(b, c)
				both(func(b target) { b.OnConnClose(c) })
				// Acks recorded but not yet fed back die with the conn.
				r := env.rec(c)
				r.mu.Lock()
				r.tags = nil
				r.mu.Unlock()
				open[c] = false
				kept := subs[:0]
				for _, s := range subs {
					if s.conn != c {
						kept = append(kept, s)
					}
				}
				subs = kept
			} else {
				mustOpenBoth(c)
				open[c] = true
			}
		}
	}
	// Quiesce: feed every outstanding ack back.
	var conns []ConnID
	for c := ConnID(1); c <= nConns; c++ {
		conns = append(conns, c)
		if open[c] {
			env.drainAcks(b, c)
		}
	}
	orc.check(t, fmt.Sprintf("seed %d", seed), b, conns, env.observed)
	return b, env
}

// TestFanoutEquivalenceRandomized runs the storm three ways — every
// fan-out forced into batched runs (threshold 1), the production
// threshold (per-frame for these fan-out widths), and Config.SerialEnv
// (never batched, the simulator's configuration). Each run is checked
// against the oracle inside runFanoutStorm; here the runs must agree
// with each other on deliveries, stats, pending and heap.
func TestFanoutEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		bA, envA := runFanoutStorm(t, seed, false, 1)
		for _, serialEnv := range []bool{false, true} {
			label := "production threshold"
			if serialEnv {
				label = "SerialEnv"
			}
			bB, envB := runFanoutStorm(t, seed, serialEnv, 0)
			for c := ConnID(1); c <= 6; c++ {
				if gA, gB := envA.observed(c), envB.observed(c); !slices.Equal(gA, gB) {
					t.Fatalf("seed %d conn %d: forced batching vs %s: deliveries differ\nA: %v\nB: %v", seed, c, label, gA, gB)
				}
			}
			if sA, sB := clearModeMeters(bA.Stats()), clearModeMeters(bB.Stats()); sA != sB {
				t.Fatalf("seed %d: forced batching vs %s: stats diverge\nA: %+v\nB: %+v", seed, label, sA, sB)
			}
			if pA, pB := bA.PendingCount(), bB.PendingCount(); pA != pB {
				t.Fatalf("seed %d: forced batching vs %s: pending %d vs %d", seed, label, pA, pB)
			}
			if uA, uB := envA.heap.Used(), envB.heap.Used(); uA != uB {
				t.Fatalf("seed %d: forced batching vs %s: heap %d vs %d", seed, label, uA, uB)
			}
		}
	}
}

// TestFanoutParallelChurnStress hammers batched fan-out from 8
// publisher goroutines racing each other's runs while another goroutine
// bounces subscriber connections mid-fan-out — the detached-subscription
// skip path and the
// batch-released-by-the-broker path (a run whose every delivery died)
// run constantly. Every delivery allocation must balance: SharedHeap
// panics on unbalanced frees, the counting DeliverBatch pool panics on
// a double release, and -race (CI) checks the locking.
func TestFanoutParallelChurnStress(t *testing.T) {
	env := newRaceEnv()
	cfg := DefaultConfig("fanchurn")
	cfg.Shards = 4
	b := New(env, cfg)
	b.fanThreshold = 8 // batch small fan-outs too

	const subConns = 4
	const subsPerConn = 12 // 48 matched targets per publish when all live
	for c := ConnID(1); c <= subConns; c++ {
		if err := b.OnConnOpen(c); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < subsPerConn; s++ {
			b.OnFrame(c, wire.Subscribe{SubID: int64(int(c)*1000 + s), Dest: message.Topic("churn")})
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		pubConn := ConnID(100 + g)
		if err := b.OnConnOpen(pubConn); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, pubConn ConnID) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				m := message.NewText("payload")
				m.ID = fmt.Sprintf("ID:churn/%d/%d", g, i)
				m.Dest = message.Topic("churn")
				b.OnFrame(pubConn, wire.Publish{Seq: int64(i), Msg: m})
			}
		}(g, pubConn)
	}
	wg.Add(1)
	go func() { // churner: bounce subscriber conns mid-fan-out
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			c := ConnID(rng.Intn(subConns) + 1)
			b.OnConnClose(c)
			if err := b.OnConnOpen(c); err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < subsPerConn; s++ {
				b.OnFrame(c, wire.Subscribe{SubID: int64(1_000_000 + i*100 + s), Dest: message.Topic("churn")})
			}
		}
	}()
	wg.Wait()

	// Sweep: ack everything delivered, then drop every connection; the
	// heap must balance to zero.
	for c := ConnID(1); c <= subConns; c++ {
		env.drainAcks(b, c)
		b.OnConnClose(c)
	}
	for g := 0; g < 8; g++ {
		b.OnConnClose(ConnID(100 + g))
	}
	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap unbalanced after sweep: %d bytes", used)
	}
	if p := b.PendingCount(); p != 0 {
		t.Fatalf("pending not drained: %d", p)
	}
}
