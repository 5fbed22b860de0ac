// Destination layer, part 2: topics. Each topic owns the subscription
// index described in the package comment (fast set + selector groups)
// and its by-topic durable index, and is the write side of the topic's
// copy-on-write route (snapshot.go): mutations patch the topic's own
// copy of the route, and refreshTopicRoute publishes it. All topicState
// access happens with the owning shard's lock held.

package broker

import (
	"slices"
)

// compactAt is the number of route-slot tombstones at which a topic
// renumbers its slots densely, given the number of live slots. Holes
// may grow to the live count, so a compaction's O(n) is amortised over
// at least as many removals; the floor spares small topics a compaction
// on nearly every removal. Tests force it to 1 to compact on every
// removal.
var compactAt = func(live int) int { return max(8, live) }

// topicState indexes a topic's subscriptions for publish fan-out: the
// fast set holds subscriptions delivered without selector evaluation,
// and the selector-bearing ones are grouped by selector source, one
// route slot per group. Grouping is textual: semantically equivalent
// but differently written selectors ("id<10" vs "id < 10") land in
// separate groups and are evaluated separately.
//
// route is the writer's copy of the published route. Its fast slice and
// every slot view are frozen — replaced, never written — and shared
// with the published copies; only route.slots itself is patched in
// place, which is why publishing clones it.
type topicState struct {
	name  string
	route topicRoute
	// byKey maps a selector source to its group's slot seq.
	byKey map[string]int32
	// durables is the by-topic durable index, in creation order, so a
	// publish touches only the durables of its own topic.
	durables []*durableState
	// subs counts live subscriptions: the fast set plus every group's
	// members.
	subs int
}

// topic returns the named topic's state, creating it on first use.
// Shard lock held.
func (sh *shard) topic(name string) *topicState {
	t := sh.topics[name]
	if t == nil {
		t = &topicState{name: name, byKey: make(map[string]int32)}
		sh.topics[name] = t
	}
	return t
}

// dropIfIdle forgets a topic with no subscriptions and no durables.
// Shard lock held.
func (sh *shard) dropIfIdle(t *topicState) {
	if t.subs == 0 && len(t.durables) == 0 {
		delete(sh.topics, t.name)
	}
}

// indexDurable files a durable under its topic, after the durables
// already there. Shard lock held.
func (sh *shard) indexDurable(d *durableState) {
	t := sh.topic(d.topic)
	t.durables = append(t.durables, d)
}

// add places a subscription into the topic's index: the fast set
// when its selector provably matches everything, otherwise the selector
// group for its selector source (created, with a new route slot, on
// first use). Shard lock held.
func (t *topicState) add(sub *subscription) {
	t.subs++
	rt := &t.route
	if sub.sel.AlwaysTrue() {
		rt.fast = append(slices.Clip(rt.fast), sub)
		return
	}
	rt.groupSubs++
	key := sub.sel.String()
	if seq, ok := t.byKey[key]; ok {
		g := rt.slots[seq]
		rt.slots[seq] = &routeSlot{sel: g.sel, subs: append(slices.Clip(g.subs), sub)}
		return
	}
	rt.groups++
	t.byKey[key] = t.addSlot(&routeSlot{sel: sub.sel, subs: []*subscription{sub}})
}

// remove removes a subscription from the topic's index, preserving the
// order of the remaining entries. An emptied selector group gives up its
// route slot. Shard lock held.
func (t *topicState) remove(sub *subscription) {
	rt := &t.route
	if sub.sel.AlwaysTrue() {
		if i := slices.Index(rt.fast, sub); i >= 0 {
			t.subs--
			rt.fast = slices.Delete(slices.Clone(rt.fast), i, i+1)
		}
		return
	}
	key := sub.sel.String()
	seq, ok := t.byKey[key]
	if !ok {
		return
	}
	g := rt.slots[seq]
	i := slices.Index(g.subs, sub)
	if i < 0 {
		return
	}
	t.subs--
	rt.groupSubs--
	if len(g.subs) > 1 {
		rt.slots[seq] = &routeSlot{sel: g.sel, subs: slices.Delete(slices.Clone(g.subs), i, i+1)}
		return
	}
	delete(t.byKey, key)
	rt.groups--
	t.removeSlot(seq)
}

// syncDurables reconciles the route with the topic's durables: a
// buffering durable holds a slot carrying its current selector, an
// attached one holds none. Shard lock held.
func (t *topicState) syncDurables() {
	for _, d := range t.durables {
		buffering := d.active == nil
		if d.slot != nil && (!buffering || d.slot.sel != d.sel) {
			t.dropDurableSlot(d)
		}
		if buffering && d.slot == nil {
			d.slot = &routeSlot{sel: d.sel, d: d}
			d.seq = t.addSlot(d.slot)
			t.route.durables++
		}
	}
}

// dropDurableSlot takes a durable's slot out of the route. Shard lock
// held.
func (t *topicState) dropDurableSlot(d *durableState) {
	d.slot = nil
	t.route.durables--
	t.removeSlot(d.seq)
}

// addSlot appends a slot to the route and its matching index; a new
// slot's seq sorts after every live one, so candidates keep
// first-appearance order. Shard lock held.
func (t *topicState) addSlot(s *routeSlot) int32 {
	rt := &t.route
	seq := int32(len(rt.slots))
	rt.slots = append(rt.slots, s)
	rt.idx = rt.idx.With(seq, s.sel.RequiredKey())
	return seq
}

// removeSlot tombstones a slot whose owner the caller has already
// uncounted, compacting the route once tombstones reach compactAt.
// Shard lock held.
func (t *topicState) removeSlot(seq int32) {
	rt := &t.route
	rt.slots[seq] = nil
	rt.idx = rt.idx.Without(seq)
	if live := rt.groups + rt.durables; len(rt.slots)-live >= compactAt(live) {
		t.compact()
	}
}

// compact renumbers the live slots 0..n-1 in their current order — the
// order predindex.Compact renumbers the index in — and tells each owner
// its new seq. Shard lock held.
func (t *topicState) compact() {
	rt := &t.route
	rt.idx = rt.idx.Compact()
	live := make([]*routeSlot, 0, rt.groups+rt.durables)
	for _, s := range rt.slots {
		if s == nil {
			continue
		}
		seq := int32(len(live))
		if s.d != nil {
			s.d.seq = seq
		} else {
			t.byKey[s.sel.String()] = seq
		}
		live = append(live, s)
	}
	rt.slots = live
}
