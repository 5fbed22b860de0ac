// Destination layer, part 6: fan-out execution. The publisher matches
// on its own goroutine (selectors once per group, durables inline) and
// collects the matched subscriptions into a pooled per-publish plan,
// which it then delivers itself. Below batchFanoutThreshold the plan
// is delivered as a per-frame loop in the exact matched order. At or above the threshold the plan
// is grouped into per-connection *runs* (preserving matched order
// within each connection), and each multi-delivery run is emitted as
// one wire.DeliverBatch splicing the frozen message's cached encoding
// per entry at the transport.
//
// Ordering contract: one goroutine walks every run in matched order, so
// per-connection delivery order holds trivially. The one relaxation is
// the emission point: deliverCost emits inside the sub.mu hold
// (tag-ordered per subscription even across racing publishers), while a
// batched run allocates tags under each sub.mu in turn and emits after
// release. With concurrent publishers to the same subscription two
// batches may therefore reach the transport in the opposite order of
// their tags; per-publisher order (all JMS promises) holds, because a
// publish delivers every run before its PubAck. This is the same
// relaxation the Forwarder contract documents for topic publishes.

package broker

import (
	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// batchFanoutThreshold is the matched-target count that engages run
// grouping and batched emission. Below it, plan execution is the
// per-frame loop. The selection is made per publish from that observable
// count; the benchmark has a workload on each side of it (fan-out 1 in
// grid_paced and match_churn, 1000 in fanout_wide).
const batchFanoutThreshold = 64

// fanRun is one connection's slice of a fan-out: every matched
// subscription of that connection, in matched order.
type fanRun struct {
	connID ConnID
	subs   []*subscription
}

// fanPlan is the pooled per-publish scratch, the only one a topic
// publish takes: the flat matched-target list (matched order), the
// run/grouping storage, and the matching index's candidate buffer and
// probe adapter (pooled here so handing &p.probe to the index costs no
// allocation). Only the publishing goroutine touches a plan.
type fanPlan struct {
	flat   []*subscription
	runs   []fanRun
	byConn map[ConnID]int
	cands  []int32
	probe  msgProbe
}

// getFanPlan returns an empty plan from the broker's pool.
func (b *Broker) getFanPlan() *fanPlan {
	p, _ := b.fanPlans.Get().(*fanPlan)
	if p == nil {
		p = &fanPlan{byConn: make(map[ConnID]int)}
	}
	return p
}

// putFanPlan clears subscription pointers (a pooled plan must not pin
// dropped subscriptions) and recycles the plan.
func (b *Broker) putFanPlan(p *fanPlan) {
	for i := range p.flat {
		p.flat[i] = nil
	}
	p.flat = p.flat[:0]
	for i := range p.runs {
		r := &p.runs[i]
		for j := range r.subs {
			r.subs[j] = nil
		}
		r.subs = r.subs[:0]
	}
	p.runs = p.runs[:0]
	clear(p.byConn)
	p.probe.m = nil
	b.fanPlans.Put(p)
}

// group partitions the flat matched list into per-connection runs,
// preserving matched order within each connection. Run order is
// first-appearance order of connections.
func (p *fanPlan) group() {
	for _, sub := range p.flat {
		id := sub.conn.id
		ri, ok := p.byConn[id]
		if !ok {
			ri = len(p.runs)
			p.byConn[id] = ri
			if ri < cap(p.runs) {
				p.runs = p.runs[:ri+1]
				p.runs[ri].connID = id
			} else {
				p.runs = append(p.runs, fanRun{connID: id})
			}
		}
		p.runs[ri].subs = append(p.runs[ri].subs, sub)
	}
}

// execFanPlan delivers a collected plan on the publishing goroutine:
// per-frame deliverCost in matched order below the threshold; at or
// above it, one deliverRun per connection.
func (b *Broker) execFanPlan(p *fanPlan, m *message.Message, cost int64) {
	if len(p.flat) < b.fanThreshold {
		for _, sub := range p.flat {
			b.deliverCost(sub, m, cost)
		}
		return
	}
	p.group()
	for i := range p.runs {
		b.deliverRun(&p.runs[i], m, cost)
	}
}

// deliverRun emits one connection's run. A single-delivery run takes
// the exact per-frame path; longer runs allocate tags per subscription
// under each leaf lock in turn, then emit one DeliverBatch for the
// whole connection (see the package comment on the emission-ordering
// relaxation). Skipped subscriptions (detached, backlog cap, OOM)
// account exactly as deliverCost does; a run whose every delivery
// was skipped releases its batch here — otherwise the transport that
// consumes the batch releases it, the same exactly-once ownership rule
// pooled Deliver frames follow.
func (b *Broker) deliverRun(r *fanRun, m *message.Message, cost int64) {
	if len(r.subs) == 1 {
		b.deliverCost(r.subs[0], m, cost)
		return
	}
	batch := wire.GetDeliverBatch()
	batch.Msg = m
	for _, sub := range r.subs {
		sub.mu.Lock()
		if sub.detached {
			sub.mu.Unlock()
			continue
		}
		if err := b.env.Alloc(cost); err != nil {
			sub.mu.Unlock()
			b.stats.droppedOOM.Add(1)
			continue
		}
		sub.nextTag++
		tag := sub.nextTag
		sub.pending[tag] = pendingDelivery{tag: tag, cost: cost}
		sub.mu.Unlock()
		b.stats.delivered.Add(1)
		b.stats.pending.Add(1)
		batch.Entries = append(batch.Entries, wire.DeliverEntry{SubID: sub.id, Tag: tag})
	}
	if len(batch.Entries) == 0 {
		wire.PutDeliverBatch(batch)
		return
	}
	b.stats.egressFlushes.Add(1)
	b.stats.egressFrames.Add(uint64(len(batch.Entries)))
	b.env.Send(r.connID, batch)
}
