// Destination layer, part 1: the shard partitioning. Each shard is a
// lock domain owning the topic, queue and durable-by-topic indexes of
// the destinations that hash to it. Publishes to destinations on
// different shards touch different locks and therefore execute
// concurrently; everything about one destination stays inside one shard,
// so per-destination semantics are identical for any shard count.

package broker

import (
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/message"
	"gridmon/internal/shardhash"
)

type shard struct {
	mu sync.Mutex

	topics map[string]*topicState
	queues map[string]*queueState

	// snap is the copy-on-write routing snapshot the lock-free publish
	// path reads (see snapshot.go). Stored only under mu; loaded
	// without it.
	snap atomic.Pointer[shardSnapshot]
}

func newShard() *shard {
	return &shard{
		topics: make(map[string]*topicState),
		queues: make(map[string]*queueState),
	}
}

// fnv1a routes destination names to shards (the repo-wide shard hash,
// allocation-free).
func fnv1a(s string) uint32 { return shardhash.FNV1a(s) }

// shardFor returns the shard owning a destination name.
func (b *Broker) shardFor(name string) *shard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	return b.shards[fnv1a(name)%uint32(len(b.shards))]
}

// ShardOf reports which shard index a destination name routes to.
// Load-test topologies and tests use it to spread (or concentrate)
// destinations across lock domains. Shard-safe.
func (b *Broker) ShardOf(name string) int {
	if len(b.shards) == 1 {
		return 0
	}
	return int(fnv1a(name) % uint32(len(b.shards)))
}

// NumShards reports the destination-layer partition count. Shard-safe.
func (b *Broker) NumShards() int { return len(b.shards) }

// lockShard acquires a shard's lock through the contention meter: every
// metered acquisition is counted, and acquisitions that had to wait
// additionally record the wait time, so /stats exposes where shard
// locks burn time. Only frame-processing paths (publish, subscribe,
// unsubscribe, durable attach) are metered; whole-broker accessors and
// restore/dump take sh.mu directly so the counters describe the hot
// paths, not administrative sweeps.
func (b *Broker) lockShard(sh *shard) {
	if sh.mu.TryLock() {
		b.stats.shardLockAcq.Add(1)
		return
	}
	start := time.Now()
	sh.mu.Lock()
	b.stats.shardLockAcq.Add(1)
	b.stats.shardLockContended.Add(1)
	b.stats.shardLockWaitNs.Add(uint64(time.Since(start).Nanoseconds()))
}

// routeLocal fans a frozen message out to the local subscribers of its
// destination; with forward set the forwarder seam (itself an atomic
// pointer) fires first. Topic publishes route from the shard's
// copy-on-write snapshot without touching shard.mu, so concurrent
// publishes to one topic do not serialize and the forwarder's ordering
// guarantee is per-publisher (all JMS promises). Queue publishes run
// under the destination shard's lock, forwarder included. Expired
// messages are dropped before forwarding: a message no peer could
// deliver is not worth wire time.
func (b *Broker) routeLocal(m *message.Message, forward bool) {
	if m.Expiration > 0 && b.env.Now() > m.Expiration {
		b.stats.expired.Add(1)
		return
	}
	sh := b.shardFor(m.Dest.Name)
	if m.Dest.Kind == message.QueueKind {
		b.lockShard(sh)
		defer sh.mu.Unlock()
	}
	if forward {
		if fw := b.forwarder.Load(); fw != nil {
			(*fw).OnLocalPublish(m)
		}
	}
	switch m.Dest.Kind {
	case message.TopicKind:
		b.routeTopicSnapshot(sh, m)
	case message.QueueKind:
		q := sh.queues[m.Dest.Name]
		if q == nil {
			q = &queueState{name: m.Dest.Name}
			sh.queues[m.Dest.Name] = q
		}
		b.enqueue(q, m)
		b.drainQueue(q)
	}
}
