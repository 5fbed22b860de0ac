// Destination layer, part 4: durable subscriptions. The name → state
// directory lives on the Broker (a durable can be recreated on a topic
// that hashes to a different shard), serialized by durableMu; the state
// itself — backlog, active consumer, by-topic index membership — is
// guarded by the shard of the durable's current topic.

package broker

import (
	"slices"
	"sync"

	"gridmon/internal/message"
	"gridmon/internal/selector"
)

type durableState struct {
	name string
	// topic and sel are rewritten only while the durable is held via
	// durableMu; topic is additionally guarded by mu because a stale
	// snapshot route can carry a store into a durable that has since
	// moved to another topic.
	topic string
	sel   *selector.Selector

	// mu is a leaf lock guarding the buffering state: the lock-free
	// publish path appends to the backlog with no shard lock held.
	// active is written under both the topic shard's lock and mu;
	// holding either is enough to read it.
	mu      sync.Mutex
	active  *subscription // nil while buffering; set by goLive
	backlog []storedMsg
	gone    bool // destroyed by unsubscribe; a stale route must not store

	// slot is the durable's route slot while it buffers, nil otherwise,
	// and seq that slot's seq; both guarded by the shard lock of topic.
	slot *routeSlot
	seq  int32
}

// attachDurable resolves (creating on first use) the durable state for a
// subscription, applying the JMS recreate-on-change rule: a durable
// resubscribed with a different topic or selector drops its backlog and,
// on a topic change, moves to the new topic's shard. It fails when the
// durable name is already active on another subscription (JMS allows one
// active consumer per durable subscription). The caller holds durableMu
// and, on success, hands the durable to goLive under the topic shard's
// lock — until then the durable keeps buffering, so no message is lost
// in between.
func (b *Broker) attachDurable(sub *subscription) (*durableState, bool) {
	d := b.durables[sub.durableName]
	if d == nil {
		d = &durableState{name: sub.durableName, topic: sub.dest.Name, sel: sub.sel}
		b.durables[sub.durableName] = d
		sh := b.shardFor(d.topic)
		b.lockShard(sh)
		sh.indexDurable(d)
		if j := b.loadJournal(); j != nil {
			j.DurableSubscribed(d.name, d.topic, d.sel.String())
		}
		b.refreshTopicRoute(sh, d.topic)
		sh.mu.Unlock()
		return d, true
	}
	sh := b.shardFor(d.topic)
	b.lockShard(sh)
	if d.active != nil {
		sh.mu.Unlock()
		return nil, false
	}
	// JMS: changing topic or selector on a durable name recreates it.
	if d.topic != sub.dest.Name || d.sel.String() != sub.sel.String() {
		d.mu.Lock()
		for _, sm := range d.backlog {
			b.env.Free(sm.cost)
		}
		d.backlog = nil
		d.mu.Unlock()
		if d.topic != sub.dest.Name {
			oldTopic := d.topic
			b.unindexDurable(sh, d)
			b.refreshTopicRoute(sh, oldTopic)
			sh.mu.Unlock()
			// Unreachable from any shard index here; only the directory
			// (which we hold via durableMu) still points at d. Stale
			// snapshot routes may still reference it, which is why the
			// topic rewrite happens under d.mu — storeDurable checks it.
			d.mu.Lock()
			d.topic = sub.dest.Name
			d.sel = sub.sel
			d.mu.Unlock()
			nsh := b.shardFor(d.topic)
			b.lockShard(nsh)
			nsh.indexDurable(d)
			if j := b.loadJournal(); j != nil {
				j.DurableSubscribed(d.name, d.topic, d.sel.String())
			}
			b.refreshTopicRoute(nsh, d.topic)
			nsh.mu.Unlock()
			return d, true
		}
		d.sel = sub.sel
		if j := b.loadJournal(); j != nil {
			j.DurableSubscribed(d.name, d.topic, d.sel.String())
		}
		// The published route's slot captured the old selector; the
		// refresh replaces it.
		b.refreshTopicRoute(sh, d.topic)
	}
	sh.mu.Unlock()
	return d, true
}

// unindexDurable removes a durable from its topic's durable index and
// route, preserving the order of the remaining entries. Shard lock held.
func (b *Broker) unindexDurable(sh *shard, d *durableState) {
	t := sh.topics[d.topic]
	if t == nil {
		return
	}
	if d.slot != nil {
		t.dropDurableSlot(d)
	}
	if i := slices.Index(t.durables, d); i >= 0 {
		t.durables = slices.Delete(t.durables, i, i+1) // zeroes the tail: no pinned backlog
	}
	sh.dropIfIdle(t)
}

// goLive attaches sub to the durable d: it replays the backlog to sub
// in rounds, and once a round finds the backlog empty under d.mu it
// makes sub the active consumer in that same hold. A publish that read
// the buffering route while the attach runs still lands in the backlog
// and goes out in the next round, so the replay keeps publish order and
// loses nothing. The caller holds durableMu and the topic shard's lock,
// and republishes the route after. Each round is swapped out under the
// leaf lock and delivered after releasing it: deliverTo takes sub.mu,
// and leaf locks never nest.
func (b *Broker) goLive(d *durableState, sub *subscription) {
	for {
		d.mu.Lock()
		backlog := d.backlog
		d.backlog = nil
		if len(backlog) == 0 {
			d.active = sub
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		if j := b.loadJournal(); j != nil {
			j.DurableFlushed(d.name)
		}
		for _, sm := range backlog {
			b.env.Free(sm.cost)
			b.deliverTo(sub, sm.msg)
		}
	}
}

// storeDurable buffers a message for a disconnected durable subscriber,
// under the durable's leaf lock (the snapshot publish path stores with
// no shard lock held). The re-checks guard the RCU races: a consumer
// that went live after the caller's route was built takes the message
// as a live delivery, a recreate that moved the durable to another
// topic must not receive a stale old-topic message, and a destroyed
// durable's backlog would never be freed.
func (b *Broker) storeDurable(d *durableState, m *message.Message, cost int64) {
	d.mu.Lock()
	if d.gone || d.topic != m.Dest.Name {
		d.mu.Unlock()
		return
	}
	if sub := d.active; sub != nil {
		d.mu.Unlock()
		b.deliverCost(sub, m, cost)
		return
	}
	defer d.mu.Unlock()
	if len(d.backlog) >= maxDurableBacklog {
		b.stats.droppedBacklog.Add(1)
		return
	}
	if err := b.env.Alloc(cost); err != nil {
		b.stats.droppedOOM.Add(1)
		return
	}
	d.backlog = append(d.backlog, storedMsg{msg: m, cost: cost})
	if j := b.loadJournal(); j != nil {
		j.DurableStored(d.name, m)
	}
}
