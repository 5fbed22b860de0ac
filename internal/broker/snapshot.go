// Destination layer, part 5: the lock-free publish read path. Each
// shard publishes a copy-on-write snapshot of its topic routing state —
// per topic, the fast set and the route slots (selector groups and
// buffering durables) with their matching index — through an
// atomic.Pointer. routeLocal loads the snapshot and fans out without
// taking shard.mu at all; mutations (subscribe/unsubscribe/durable
// churn, still under shard.mu) patch the touched topic's route and
// republish it, so the shard lock is a pure write-side lock and
// concurrent publishes to the *same* topic never serialize on it.
//
// The snapshot is two-level: an immutable topic→entry map (copied only
// when a topic appears or disappears) whose entries hold the per-topic
// route behind their own atomic.Pointer (swapped on subscription churn
// within an existing topic). Readers therefore pay two atomic loads per
// publish; writers pay one map copy only on topic create/delete.
//
// A patch never rebuilds the route. Each selector group and buffering
// durable owns one route slot, addressed by a seq that is stable for as
// long as the slot lives: a new slot is appended, a removed one leaves
// a nil tombstone, and the slots are renumbered (in order) only when
// tombstones pile up. Every slot is an immutable view, replaced when its
// group's membership changes, so republishing costs one copy of the
// slot pointer slice plus a predindex With/Without on the matching
// index.
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

// topicRoute is the immutable fan-out plan for one topic: the fast set
// in subscribe order, and the route slots in first-appearance order.
type topicRoute struct {
	fast []*subscription
	// slots is indexed by matching-index seq; nil marks a removed slot.
	slots []*routeSlot
	// idx is the content-based matching index over the live slots; nil
	// only when there are none. It never emits a removed seq.
	idx *predindex.Index
	// groups and durables count the live group and durable slots, and
	// groupSubs the subscribers across the groups, so routing can
	// bulk-account SelectorRejected and the skipped-slot meters for the
	// slots the index skipped without visiting them.
	groups, durables, groupSubs int
}

// routeSlot is one matching-index entry of a topic route: a selector
// group (sel and its members, in subscribe order) or a buffering durable
// (d, and the selector captured when its slot was made — a recreate may
// swap d.sel, and the refresh that recreate triggers replaces the
// slot). Immutable once published.
type routeSlot struct {
	sel  *selector.Selector
	subs []*subscription
	d    *durableState
}

// refreshTopicRoute publishes one topic's route to the lock-free read
// path. Every mutation of a topic's subscription index, its by-topic
// durable index, or a durable's active flag calls this before releasing
// the shard lock — the lock is what single-files snapshot writers.
// Shard lock held.
func (b *Broker) refreshTopicRoute(sh *shard, name string) {
	var rt *topicRoute
	if t := sh.topics[name]; t != nil {
		t.syncDurables()
		if r := t.route; len(r.fast) > 0 || r.groups+r.durables > 0 {
			r.slots = slices.Clone(r.slots)
			rt = &r
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
// batched runs above it. Durable stores happen inline during matching,
// so backlog order is independent of how the plan is executed.
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

// msgProbe adapts a message to the index's attribute-probe interface.
type msgProbe struct{ m *message.Message }

func (p *msgProbe) ProbeAttr(attr string) (predindex.Value, bool) {
	return selector.ProbeValue(p.m, attr)
}

// routeMatchIndexed matches a message through the route's matching
// index: only candidate slots are evaluated, in first-appearance order
// (candidates arrive seq-sorted), so delivery order is deterministic for
// any single caller. Groups the index skipped still account their
// subscribers into SelectorRejected: the index only skips a group whose
// program could not return TRUE. Matched subscriptions are collected
// into plan, whose candidate buffer and probe the index borrows; durable
// stores happen here.
func (b *Broker) routeMatchIndexed(rt *topicRoute, m *message.Message, cost int64, plan *fanPlan) {
	plan.probe.m = m
	cands := rt.idx.Candidates(&plan.probe, plan.cands[:0])
	plan.cands = cands[:0]
	candGroups := 0
	candGroupSubs := 0
	for _, ci := range cands {
		s := rt.slots[ci]
		if s.d == nil {
			candGroups++
			candGroupSubs += len(s.subs)
			if s.sel.Matches(m) {
				plan.flat = append(plan.flat, s.subs...)
			} else {
				b.stats.selectorRejected.Add(uint64(len(s.subs)))
			}
		} else if s.sel.Matches(m) {
			// storeDurable re-checks "still buffering" under the durable's
			// lock: a consumer that attached after this route was built
			// owns delivery now, so the store is skipped.
			b.storeDurable(s.d, m, cost)
		}
	}
	if n := len(cands); n > 0 {
		b.stats.matchProgramEvals.Add(uint64(n))
	}
	if skipped := rt.groups - candGroups; skipped > 0 {
		b.stats.matchGroupsSkipped.Add(uint64(skipped))
	}
	if skipped := rt.durables - (len(cands) - candGroups); skipped > 0 {
		b.stats.matchDurablesSkipped.Add(uint64(skipped))
	}
	if rejected := rt.groupSubs - candGroupSubs; rejected > 0 {
		// Subscribers of skipped groups were rejected by their selector:
		// the index proved the program could not return TRUE.
		b.stats.selectorRejected.Add(uint64(rejected))
	}
}
