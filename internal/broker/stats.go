// Egress layer: Deliver-frame emission and broker counters. Counters
// are atomics, so Stats() and PendingCount() are safe to call from any
// goroutine while shards run publishes in parallel; deliverCost is the
// funnel every per-frame delivery passes through.

package broker

import (
	"sync/atomic"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Stats counts broker activity.
type Stats struct {
	Connections      int
	PeakConnections  int
	Published        uint64
	Delivered        uint64
	Acked            uint64
	SelectorRejected uint64 // deliveries suppressed by selectors
	Expired          uint64
	DroppedOOM       uint64 // deliveries dropped because memory ran out
	DroppedBacklog   uint64 // messages dropped at the queue and durable backlog caps
	ForwardedOut     uint64 // messages forwarded to peer brokers
	ForwardedIn      uint64 // messages received from peer brokers
	RefusedConns     uint64

	// Contention observability: the ShardLock* trio meters every
	// frame-processing shard-lock acquisition (subscribe, unsubscribe,
	// durable churn, queue publish — topic publishes take none): how
	// many, how many had to wait, and the total nanoseconds spent
	// waiting.
	ShardLockAcquisitions uint64
	ShardLockContended    uint64
	ShardLockWaitNs       uint64

	// Content-based matching index meters. MatchProgramEvals counts
	// compiled predicate evaluations on the topic publish path — one
	// per candidate (selector group or buffering durable) the
	// discrimination index emitted; MatchGroupsSkipped counts selector
	// groups the index proved could not match (their subscribers still
	// count into SelectorRejected) and MatchDurablesSkipped the
	// buffering durables likewise proved non-matching.
	MatchProgramEvals    uint64
	MatchGroupsSkipped   uint64
	MatchDurablesSkipped uint64

	// Egress-batching meters (fanplan.go). EgressFlushes counts batched
	// per-connection emissions (one wire.DeliverBatch handed to
	// Env.Send) and EgressFrames the Deliver frames carried inside them
	// — EgressFrames/EgressFlushes is the average coalescing run length,
	// surfaced as egress_frames_per_flush on naradad's /stats.
	EgressFlushes uint64
	EgressFrames  uint64
}

// EgressFramesPerFlush reports the average number of Deliver frames per
// batched emission (0 when no batch has been emitted).
func (s Stats) EgressFramesPerFlush() float64 {
	if s.EgressFlushes == 0 {
		return 0
	}
	return float64(s.EgressFrames) / float64(s.EgressFlushes)
}

// statCounters is the atomic backing store for Stats, plus the live
// pending-delivery gauge behind PendingCount.
type statCounters struct {
	connections      atomic.Int64
	peakConnections  atomic.Int64
	pending          atomic.Int64
	published        atomic.Uint64
	delivered        atomic.Uint64
	acked            atomic.Uint64
	selectorRejected atomic.Uint64
	expired          atomic.Uint64
	droppedOOM       atomic.Uint64
	droppedBacklog   atomic.Uint64
	forwardedOut     atomic.Uint64
	forwardedIn      atomic.Uint64
	refusedConns     atomic.Uint64

	shardLockAcq       atomic.Uint64
	shardLockContended atomic.Uint64
	shardLockWaitNs    atomic.Uint64

	matchProgramEvals    atomic.Uint64
	matchGroupsSkipped   atomic.Uint64
	matchDurablesSkipped atomic.Uint64

	egressFlushes atomic.Uint64
	egressFrames  atomic.Uint64
}

// Stats returns a snapshot of broker counters. Shard-safe: callable from
// any goroutine at any time; under concurrent load the fields are
// individually (not mutually) consistent.
func (b *Broker) Stats() Stats {
	return Stats{
		Connections:      int(b.stats.connections.Load()),
		PeakConnections:  int(b.stats.peakConnections.Load()),
		Published:        b.stats.published.Load(),
		Delivered:        b.stats.delivered.Load(),
		Acked:            b.stats.acked.Load(),
		SelectorRejected: b.stats.selectorRejected.Load(),
		Expired:          b.stats.expired.Load(),
		DroppedOOM:       b.stats.droppedOOM.Load(),
		DroppedBacklog:   b.stats.droppedBacklog.Load(),
		ForwardedOut:     b.stats.forwardedOut.Load(),
		ForwardedIn:      b.stats.forwardedIn.Load(),
		RefusedConns:     b.stats.refusedConns.Load(),

		ShardLockAcquisitions: b.stats.shardLockAcq.Load(),
		ShardLockContended:    b.stats.shardLockContended.Load(),
		ShardLockWaitNs:       b.stats.shardLockWaitNs.Load(),

		MatchProgramEvals:    b.stats.matchProgramEvals.Load(),
		MatchGroupsSkipped:   b.stats.matchGroupsSkipped.Load(),
		MatchDurablesSkipped: b.stats.matchDurablesSkipped.Load(),

		EgressFlushes: b.stats.egressFlushes.Load(),
		EgressFrames:  b.stats.egressFrames.Load(),
	}
}

// PendingCount reports unacknowledged deliveries across all
// subscriptions (for tests and monitoring). Shard-safe: the gauge is
// maintained atomically at delivery, acknowledgement and subscription
// teardown.
func (b *Broker) PendingCount() int {
	return int(b.stats.pending.Load())
}

// deliverTo sends a message to one subscription, tracking it as pending
// until acknowledged.
func (b *Broker) deliverTo(sub *subscription, m *message.Message) {
	b.deliverCost(sub, m, int64(m.EncodedSize())+memPerPendingOverhead)
}

// deliverCost is deliverTo with the delivery's memory cost precomputed,
// so a topic fan-out prices the message once instead of per subscriber.
// The frozen message is shared by reference across all deliveries; the
// Deliver frame itself comes from a pool, returned by whichever
// transport consumes it.
//
// Delivery state is guarded by the subscription's leaf lock, not the
// shard lock: the topic publish path calls this with no shard lock at
// all, and concurrent publishes to the same subscriber serialize here. Keeping env.Send inside the sub.mu hold preserves tag-ordered
// frame emission per subscription. A subscription dropped between
// snapshot load and delivery is detached: skip it, or the allocation
// would leak (nothing would ever free it).
func (b *Broker) deliverCost(sub *subscription, m *message.Message, cost int64) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.detached {
		return
	}
	if err := b.env.Alloc(cost); err != nil {
		b.stats.droppedOOM.Add(1)
		return
	}
	sub.nextTag++
	tag := sub.nextTag
	sub.pending[tag] = pendingDelivery{tag: tag, cost: cost}
	b.stats.delivered.Add(1)
	b.stats.pending.Add(1)
	d := wire.GetDeliver()
	d.SubID, d.Tag, d.Msg = sub.id, tag, m
	b.env.Send(sub.conn.id, d)
}
