// Destination layer, part 5: the lock-free publish read path. Each
// shard publishes a copy-on-write snapshot of its topic routing state —
// per topic, the fast set, the selector groups and the buffering
// (inactive) durables — through an atomic.Pointer. routeLocal loads the
// snapshot and fans out without taking shard.mu at all; mutations
// (subscribe/unsubscribe/durable churn, still under shard.mu) rebuild
// only the touched topic's slices and republish, so the shard lock is a
// pure write-side lock and concurrent publishes to the *same* topic no
// longer serialize on it.
//
// The snapshot is two-level: an immutable topic→entry map (copied only
// when a topic appears or disappears) whose entries hold the per-topic
// route behind their own atomic.Pointer (swapped on subscription churn
// within an existing topic). Readers therefore pay two atomic loads per
// publish; writers pay one map copy only on topic create/delete.
//
// Consistency contract (standard RCU semantics): a publish concurrent
// with an index mutation may route against the immediately-prior index
// state; once the mutating call returns, every later publish observes
// it (the atomic store/load pair is the happens-before edge). Delivery
// state itself is not snapshotted — sub.pending/nextTag are guarded by
// the per-subscription leaf lock and durable backlogs by the
// per-durable leaf lock, so racing publishes to one subscriber stay
// safe, and a subscription dropped mid-publish is skipped via its
// detached flag instead of leaking pending allocations.

package broker

import (
	"slices"

	"gridmon/internal/message"
	"gridmon/internal/predindex"
	"gridmon/internal/selector"
	"sync/atomic"
)

// shardSnapshot is one shard's published routing state. The map is
// immutable once stored; entries are shared across snapshot generations
// and updated in place through their atomic route pointer.
type shardSnapshot struct {
	topics map[string]*topicEntry
}

// topicEntry is the stable per-topic slot in the snapshot map. route is
// never nil once the entry is reachable from a stored snapshot.
type topicEntry struct {
	route atomic.Pointer[topicRoute]
}

// topicRoute is the immutable fan-out plan for one topic: a frozen copy
// of the index slices in their deterministic order (fast set in
// subscribe order, groups in first-appearance order, durables in
// creation order).
type topicRoute struct {
	fast     []*subscription
	groups   []routeGroup
	durables []routeDurable

	// idx is the content-based matching index over groups (seqs
	// 0..len(groups)-1) and durables (seqs len(groups)..), built at
	// route-patch time; nil only when there are no groups and no
	// buffering durables. Immutable, like the rest of the route
	// (predindex is shard-safe after Build).
	idx *predindex.Index
	// groupSubs is the total subscriber count across groups, so routing
	// can bulk-account SelectorRejected for the groups the index skipped
	// without visiting them.
	groupSubs int
}

// routeGroup mirrors selGroup with a copied member slice (the live
// group's slice is mutated in place under shard.mu).
type routeGroup struct {
	prog *selector.Program
	subs []*subscription
}

// routeDurable is one durable that was buffering (no active consumer)
// when the route was built. sel is captured at build time because a
// recreate may swap d.sel; the refresh that recreate triggers
// republishes the route.
type routeDurable struct {
	d   *durableState
	sel *selector.Selector
}

// refreshTopicRoute rebuilds one topic's copy-on-write route from the
// shard's locked index state and publishes it to the lock-free read
// path. Every mutation of a topic's subscription index, its by-topic
// durable index, or a durable's active flag calls this before releasing
// the shard lock — the lock is what single-files snapshot writers.
// Shard lock held.
func (b *Broker) refreshTopicRoute(sh *shard, name string) {
	t := sh.topics[name]
	durables := sh.durablesByTopic[name]
	inactive := 0
	for _, d := range durables {
		if d.active == nil {
			inactive++
		}
	}

	var rt *topicRoute
	if t != nil || inactive > 0 {
		rt = &topicRoute{}
		var keys []predindex.Key
		if t != nil {
			rt.fast = slices.Clone(t.fast)
			if len(t.groups) > 0 {
				rt.groups = make([]routeGroup, 0, len(t.groups))
				keys = make([]predindex.Key, 0, len(t.groups)+inactive)
				for _, g := range t.groups {
					rt.groups = append(rt.groups, routeGroup{prog: g.prog, subs: slices.Clone(g.subs)})
					rt.groupSubs += len(g.subs)
					keys = append(keys, g.matchKey)
				}
			}
		}
		if inactive > 0 {
			rt.durables = make([]routeDurable, 0, inactive)
			for _, d := range durables {
				if d.active == nil {
					rt.durables = append(rt.durables, routeDurable{d: d, sel: d.sel})
					keys = append(keys, d.sel.RequiredKey())
				}
			}
		}
		// Index seqs: groups first (0..G-1), then durables (G..G+D-1),
		// so seq-sorted candidates are visited in first-appearance
		// order and delivery order is deterministic.
		if len(keys) > 0 {
			rt.idx = predindex.Build(keys)
		}
	}

	cur := sh.snap.Load()
	if rt == nil {
		// Topic gone: drop its entry (map copy), if it ever had one.
		if cur == nil {
			return
		}
		if _, ok := cur.topics[name]; !ok {
			return
		}
		next := make(map[string]*topicEntry, len(cur.topics)-1)
		for k, v := range cur.topics {
			if k != name {
				next[k] = v
			}
		}
		sh.snap.Store(&shardSnapshot{topics: next})
		return
	}
	if cur != nil {
		if e, ok := cur.topics[name]; ok {
			// Existing topic: swap its route in place, no map copy.
			e.route.Store(rt)
			return
		}
	}
	// New topic: entry is fully initialized before the map that makes it
	// reachable is published.
	e := &topicEntry{}
	e.route.Store(rt)
	var next map[string]*topicEntry
	if cur == nil {
		next = map[string]*topicEntry{name: e}
	} else {
		next = make(map[string]*topicEntry, len(cur.topics)+1)
		for k, v := range cur.topics {
			next[k] = v
		}
		next[name] = e
	}
	sh.snap.Store(&shardSnapshot{topics: next})
}

// routeTopicSnapshot is the topic fan-out, driven by the shard's
// published snapshot. No shard lock is taken; deliveries synchronize on
// the per-subscription lock and durable stores on the per-durable lock.
//
// Matching runs here on the publishing goroutine; matched subscriptions
// are collected into a pooled plan and delivered by execFanPlan —
// per-frame in matched order below the threshold, as per-connection
// batched runs across the worker pool above it. Durable stores happen
// inline during matching: they are leaf-locked, rare, and keeping them
// on the publisher keeps backlog order independent of how the plan is
// executed.
func (b *Broker) routeTopicSnapshot(sh *shard, m *message.Message) {
	snap := sh.snap.Load()
	if snap == nil {
		return
	}
	e := snap.topics[m.Dest.Name]
	if e == nil {
		return
	}
	rt := e.route.Load()
	if rt == nil {
		return
	}
	cost := int64(m.EncodedSize()) + b.cfg.MemPerPendingOverhead
	plan := b.getFanPlan()
	plan.flat = append(plan.flat, rt.fast...)
	if rt.idx != nil {
		b.routeMatchIndexed(rt, m, cost, plan)
	}
	b.execFanPlan(plan, m, cost)
	b.putFanPlan(plan)
}

// matchScratch is the pooled per-publish scratch of the indexed route:
// the candidate buffer and the probe adapter live in one pooled struct
// so handing &sc.probe to the index costs no allocation.
type matchScratch struct {
	buf   []int32
	probe msgProbe
}

// msgProbe adapts a message to the index's attribute-probe interface.
type msgProbe struct{ m *message.Message }

func (p *msgProbe) ProbeAttr(attr string) (predindex.Value, bool) {
	return selector.ProbeValue(p.m, attr)
}

// routeMatchIndexed matches a message through the route's matching
// index: only candidate groups/durables are evaluated, in
// first-appearance order (candidates arrive seq-sorted), so delivery
// order is deterministic for any single caller. Groups the index
// skipped still account their subscribers into SelectorRejected: the
// index only skips a group whose program could not return TRUE.
// Matched subscriptions are collected into plan; durable stores happen
// here.
func (b *Broker) routeMatchIndexed(rt *topicRoute, m *message.Message, cost int64, plan *fanPlan) {
	sc, _ := b.matchScratch.Get().(*matchScratch)
	if sc == nil {
		sc = &matchScratch{}
	}
	sc.probe.m = m
	cands := rt.idx.Candidates(&sc.probe, sc.buf[:0])
	nG := len(rt.groups)
	candGroups := 0
	candGroupSubs := 0
	for _, ci := range cands {
		if int(ci) < nG {
			g := &rt.groups[ci]
			candGroups++
			candGroupSubs += len(g.subs)
			if g.prog.Matches(m) {
				plan.flat = append(plan.flat, g.subs...)
			} else {
				b.stats.selectorRejected.Add(uint64(len(g.subs)))
			}
		} else if rd := &rt.durables[int(ci)-nG]; rd.sel.Matches(m) {
			// storeDurable re-checks "still buffering" under the durable's
			// lock: a consumer that attached after this route was built
			// owns delivery now, so the store is skipped.
			b.storeDurable(rd.d, m, cost)
		}
	}
	if n := len(cands); n > 0 {
		b.stats.matchProgramEvals.Add(uint64(n))
	}
	if skipped := nG - candGroups; skipped > 0 {
		b.stats.matchGroupsSkipped.Add(uint64(skipped))
	}
	if skipped := len(rt.durables) - (len(cands) - candGroups); skipped > 0 {
		b.stats.matchDurablesSkipped.Add(uint64(skipped))
	}
	if rejected := rt.groupSubs - candGroupSubs; rejected > 0 {
		// Subscribers of skipped groups were rejected by their selector:
		// the index proved the program could not return TRUE.
		b.stats.selectorRejected.Add(uint64(rejected))
	}
	sc.probe.m = nil
	sc.buf = cands[:0]
	b.matchScratch.Put(sc)
}
