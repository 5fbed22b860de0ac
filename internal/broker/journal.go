// Persistence seam for the destination layer's durable state: durable
// subscriptions (existence + disconnected backlog) and queue backlogs.
// The broker stays storage-agnostic — it emits mutation callbacks
// through the Journal interface (package brokerwal implements it over a
// write-ahead log) and exposes Restore*/Dump* so a recovery layer can
// rebuild and snapshot the same state.
//
// What is durable and what is not: durable-subscription existence,
// their disconnected backlogs, and queue backlogs persist; live
// in-flight deliveries (the per-subscription pending/unacked maps) do
// not — a delivery leaves the durable backlog when delivered, not when
// acknowledged, so messages delivered-but-unacked at crash time are not
// redelivered on restart. Everything else in the broker
// (subscriptions, connections, topics) is connection-scoped and
// legitimately dies with the process.

package broker

import (
	"sort"

	"gridmon/internal/message"
	"gridmon/internal/selector"
)

// Journal observes the broker's durable-state mutations, in the exact
// order they are applied: every callback fires under the destination
// shard's lock (durable callbacks additionally under durableMu), so
// per-destination records are totally ordered with the mutations they
// describe, and an acknowledgement emitted after the mutation (PubAck
// after routeLocal) is emitted after the journal append returns.
//
// Like Forwarder, the implementation must not call back into the
// broker's locked paths from inside a callback.
type Journal interface {
	// DurableSubscribed records durable creation, or recreation with a
	// changed topic/selector (which implies an emptied backlog).
	// Identical reattaches are not journaled — they change nothing.
	DurableSubscribed(name, topic, selector string)
	// DurableUnsubscribed records durable destruction (client
	// Unsubscribe; a mere disconnect keeps the durable buffering).
	DurableUnsubscribed(name string)
	// DurableStored records a message buffered for a disconnected
	// durable. The message is frozen and owned by the broker.
	DurableStored(name string, m *message.Message)
	// DurableFlushed records the backlog handoff to a reconnecting
	// consumer: the entire backlog leaves the store.
	DurableFlushed(name string)
	// QueueStored records a message added to a queue backlog.
	QueueStored(queue string, m *message.Message)
	// QueueDrained records backlog entries delivered to consumers;
	// removed holds their indexes into the pre-drain backlog,
	// ascending.
	QueueDrained(queue string, removed []int)
}

// SetJournal installs the mutation observer. Shard-safe: registration
// is atomic and takes effect for operations that acquire their shard
// lock afterwards. Pass nil to detach.
func (b *Broker) SetJournal(j Journal) {
	if j == nil {
		b.journal.Store(nil)
		return
	}
	b.journal.Store(&j)
}

// loadJournal returns the installed observer, or nil.
func (b *Broker) loadJournal() Journal {
	if p := b.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// ---- Restore API ----
//
// The replay path: a recovery layer feeds journaled mutations back
// through these before the broker accepts connections. They apply the
// same state changes as the journaled operations but never re-journal,
// and there are no live subscriptions yet, so backlogs only accumulate.

// RestoreDurable recreates a durable subscription (or re-points an
// existing one at a new topic/selector, dropping its backlog — the
// recreate-on-change rule, which is the only way two records for one
// name occur).
func (b *Broker) RestoreDurable(name, topic, selSrc string) error {
	sel, err := selector.Parse(selSrc)
	if err != nil {
		return err
	}
	b.durableMu.Lock()
	defer b.durableMu.Unlock()
	d := b.durables[name]
	if d == nil {
		d = &durableState{name: name, topic: topic, sel: sel}
		b.durables[name] = d
		sh := b.shardFor(topic)
		sh.mu.Lock()
		sh.indexDurable(d)
		b.refreshTopicRoute(sh, topic)
		sh.mu.Unlock()
		return nil
	}
	sh := b.shardFor(d.topic)
	sh.mu.Lock()
	b.freeBacklog(d.backlog)
	d.backlog = nil
	if d.topic != topic {
		oldTopic := d.topic
		b.unindexDurable(sh, d)
		b.refreshTopicRoute(sh, oldTopic)
		sh.mu.Unlock()
		d.topic = topic
		d.sel = sel
		nsh := b.shardFor(topic)
		nsh.mu.Lock()
		nsh.indexDurable(d)
		b.refreshTopicRoute(nsh, topic)
		nsh.mu.Unlock()
		return nil
	}
	d.sel = sel
	b.refreshTopicRoute(sh, topic)
	sh.mu.Unlock()
	return nil
}

// RestoreDurableDrop replays a DurableUnsubscribed record.
func (b *Broker) RestoreDurableDrop(name string) {
	b.durableMu.Lock()
	defer b.durableMu.Unlock()
	d := b.durables[name]
	if d == nil {
		return
	}
	sh := b.shardFor(d.topic)
	sh.mu.Lock()
	b.freeBacklog(d.backlog)
	d.backlog = nil
	b.unindexDurable(sh, d)
	b.refreshTopicRoute(sh, d.topic)
	sh.mu.Unlock()
	delete(b.durables, name)
}

// RestoreDurableStore replays a DurableStored record. The message must
// already be decoded; it is frozen here.
func (b *Broker) RestoreDurableStore(name string, m *message.Message) {
	b.durableMu.Lock()
	defer b.durableMu.Unlock()
	d := b.durables[name]
	if d == nil {
		return // a later compaction dropped the durable; tolerated
	}
	m = m.Freeze()
	sh := b.shardFor(d.topic)
	sh.mu.Lock()
	b.storeDurable(d, m, int64(m.EncodedSize())+memPerPendingOverhead)
	sh.mu.Unlock()
}

// RestoreDurableFlush replays a DurableFlushed record.
func (b *Broker) RestoreDurableFlush(name string) {
	b.durableMu.Lock()
	defer b.durableMu.Unlock()
	d := b.durables[name]
	if d == nil {
		return
	}
	sh := b.shardFor(d.topic)
	sh.mu.Lock()
	b.freeBacklog(d.backlog)
	d.backlog = nil
	sh.mu.Unlock()
}

// RestoreQueueStore replays a QueueStored record.
func (b *Broker) RestoreQueueStore(queue string, m *message.Message) {
	m = m.Freeze()
	sh := b.shardFor(queue)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.queues[queue]
	if q == nil {
		q = &queueState{name: queue}
		sh.queues[queue] = q
	}
	b.enqueue(q, m)
}

// RestoreQueueDrain replays a QueueDrained record: removed indexes
// (ascending, into the current backlog) leave the queue.
func (b *Broker) RestoreQueueDrain(queue string, removed []int) {
	sh := b.shardFor(queue)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.queues[queue]
	if q == nil {
		return
	}
	kept, ri := 0, 0
	for i, sm := range q.backlog {
		if ri < len(removed) && removed[ri] == i {
			ri++
			b.env.Free(sm.cost)
			continue
		}
		q.backlog[kept] = sm
		kept++
	}
	for i := kept; i < len(q.backlog); i++ {
		q.backlog[i] = storedMsg{}
	}
	q.backlog = q.backlog[:kept]
	if len(q.subs) == 0 && len(q.backlog) == 0 {
		delete(sh.queues, queue)
	}
}

// freeBacklog releases the memory charge of a dropped backlog. Shard
// lock held.
func (b *Broker) freeBacklog(backlog []storedMsg) {
	for _, sm := range backlog {
		b.env.Free(sm.cost)
	}
}

// ---- Dump API ----
//
// Snapshot accessors: a recovery layer re-emits the returned state as
// compacted records. Each shard is locked in turn, so the caller must
// be quiescent (no concurrent mutations) for the dump to be a
// consistent cut — the daemons dump only during startup recovery and
// shutdown.

// DurableDump is one durable subscription's persistent state.
type DurableDump struct {
	Name     string
	Topic    string
	Selector string
	Backlog  []*message.Message
}

// QueueDump is one queue's persistent backlog.
type QueueDump struct {
	Name    string
	Backlog []*message.Message
}

// DumpDurables snapshots every durable subscription, sorted by name.
func (b *Broker) DumpDurables() []DurableDump {
	b.durableMu.Lock()
	defer b.durableMu.Unlock()
	out := make([]DurableDump, 0, len(b.durables))
	for name, d := range b.durables {
		sh := b.shardFor(d.topic)
		sh.mu.Lock()
		dd := DurableDump{Name: name, Topic: d.topic, Selector: d.sel.String()}
		for _, sm := range d.backlog {
			dd.Backlog = append(dd.Backlog, sm.msg)
		}
		sh.mu.Unlock()
		out = append(out, dd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DumpQueues snapshots every non-empty queue backlog, sorted by name.
func (b *Broker) DumpQueues() []QueueDump {
	var out []QueueDump
	for _, sh := range b.shards {
		sh.mu.Lock()
		for name, q := range sh.queues {
			if len(q.backlog) == 0 {
				continue
			}
			qd := QueueDump{Name: name}
			for _, sm := range q.backlog {
				qd.Backlog = append(qd.Backlog, sm.msg)
			}
			out = append(out, qd)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
