// Destination layer, part 3: queues. Round-robin competing consumers
// with selector skip, and a stored backlog while no consumer matches.
// All queueState access happens with the owning shard's lock held.

package broker

import "gridmon/internal/message"

type storedMsg struct {
	msg  *message.Message
	cost int64
}

type queueState struct {
	name    string
	subs    []*subscription // round-robin order
	rrNext  int
	backlog []storedMsg
}

func (b *Broker) enqueue(q *queueState, m *message.Message) {
	if len(q.backlog) >= b.queueBacklogCap {
		b.stats.droppedBacklog.Add(1)
		return
	}
	cost := int64(m.EncodedSize()) + memPerPendingOverhead
	if err := b.env.Alloc(cost); err != nil {
		b.stats.droppedOOM.Add(1)
		return
	}
	q.backlog = append(q.backlog, storedMsg{msg: m, cost: cost})
	if j := b.loadJournal(); j != nil {
		j.QueueStored(q.name, m)
	}
}

// drainQueue hands queued messages to consumers round-robin, honouring
// selectors: a message goes to the next consumer whose selector accepts
// it; messages no consumer accepts stay queued. The backlog is filtered
// in place — undelivered messages shift down within the same backing
// array — so a drain allocates nothing, and when no consumer matches
// anything the backlog is left untouched. Shard lock held.
func (b *Broker) drainQueue(q *queueState) {
	if len(q.subs) == 0 || len(q.backlog) == 0 {
		return
	}
	// Removed-index bookkeeping is journal-only: the nil-journal drain
	// stays allocation-free.
	j := b.loadJournal()
	var removed []int
	kept := 0
	for idx, sm := range q.backlog {
		delivered := false
		for i := 0; i < len(q.subs); i++ {
			sub := q.subs[(q.rrNext+i)%len(q.subs)]
			if sub.sel.Matches(sm.msg) {
				q.rrNext = (q.rrNext + i + 1) % len(q.subs)
				b.env.Free(sm.cost)
				b.deliverTo(sub, sm.msg)
				delivered = true
				break
			}
		}
		if !delivered {
			q.backlog[kept] = sm
			kept++
		} else if j != nil {
			removed = append(removed, idx)
		}
	}
	if j != nil && len(removed) > 0 {
		j.QueueDrained(q.name, removed)
	}
	if kept == len(q.backlog) {
		return // nothing delivered; backlog unchanged
	}
	// Zero the vacated tail so delivered messages don't stay pinned by
	// the backing array.
	for i := kept; i < len(q.backlog); i++ {
		q.backlog[i] = storedMsg{}
	}
	q.backlog = q.backlog[:kept]
}

// removeQueueSub takes a subscription out of the queue's round-robin
// ring, dropping the queue state entirely once both consumers and
// backlog are gone. Shard lock held.
func (b *Broker) removeQueueSub(sh *shard, q *queueState, sub *subscription) {
	for i, s := range q.subs {
		if s == sub {
			copy(q.subs[i:], q.subs[i+1:])
			q.subs[len(q.subs)-1] = nil // don't pin the dead subscription
			q.subs = q.subs[:len(q.subs)-1]
			if q.rrNext > i {
				q.rrNext--
			}
			break
		}
	}
	if len(q.subs) == 0 && len(q.backlog) == 0 {
		delete(sh.queues, q.name)
	}
}
