// Package brokerwal persists a broker core's durable state — durable
// subscriptions, their disconnected backlogs, and queue backlogs —
// through a wal.Persister. It is the glue between two seams that know
// nothing of each other: broker.Journal (mutation callbacks fired under
// the broker's shard locks) and the broker's Restore/Dump API on one
// side, the write-ahead log on the other. The quiescence rule for Open,
// CloseClean and Close is wal.Persister's.
package brokerwal

import (
	"fmt"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
	"gridmon/internal/wire"
)

// Record encoding: one op byte, then wal/codec fields. Messages ride in
// their wire encoding (wire.MarshalMessage) as the record's final field,
// so they need no length prefix.
const (
	opDurableSub   = 1 // name, topic, selector
	opDurableUnsub = 2 // name
	opDurableStore = 3 // name, message
	opDurableFlush = 4 // name
	opQueueStore   = 5 // queue, message
	opQueueDrain   = 6 // queue, count, indexes (ascending uvarints)
)

// Persister implements broker.Journal over a wal.Persister, whose Stats,
// Err, CloseClean and Close it promotes. The callbacks are safe for
// concurrent use (different shards journal concurrently).
type Persister struct {
	*wal.Persister
	b *broker.Broker
}

// Open recovers broker state from the log directory, compacts it and
// attaches the persister as the broker's journal (wal.OpenPersister).
// jms.NewServerRestored's callback is the intended site: the broker is
// not yet serving connections there.
func Open(fsys walfs.FS, opts wal.Options, b *broker.Broker) (*Persister, wal.RecoverInfo, error) {
	p := &Persister{b: b}
	var info wal.RecoverInfo
	var err error
	if p.Persister, info, err = wal.OpenPersister[broker.Journal](fsys, opts, b, p, p.apply, p.dump); err != nil {
		return nil, info, err
	}
	return p, info, nil
}

func appendName(b []byte, op byte, name string) []byte {
	return wal.AppendString(append(b, op), name)
}

func appendDurableSub(b []byte, name, topic, selector string) []byte {
	b = appendName(b, opDurableSub, name)
	return wal.AppendString(wal.AppendString(b, topic), selector)
}

func appendStore(b []byte, op byte, name string, m *message.Message) []byte {
	return wire.MarshalMessage(appendName(b, op, name), m)
}

func (p *Persister) DurableSubscribed(name, topic, selector string) {
	p.Record(func(b []byte) []byte { return appendDurableSub(b, name, topic, selector) })
}

func (p *Persister) DurableUnsubscribed(name string) {
	p.Record(func(b []byte) []byte { return appendName(b, opDurableUnsub, name) })
}

func (p *Persister) DurableStored(name string, m *message.Message) {
	p.Record(func(b []byte) []byte { return appendStore(b, opDurableStore, name, m) })
}

func (p *Persister) DurableFlushed(name string) {
	p.Record(func(b []byte) []byte { return appendName(b, opDurableFlush, name) })
}

func (p *Persister) QueueStored(queue string, m *message.Message) {
	p.Record(func(b []byte) []byte { return appendStore(b, opQueueStore, queue, m) })
}

func (p *Persister) QueueDrained(queue string, removed []int) {
	p.Record(func(b []byte) []byte {
		b = wal.AppendUvarint(appendName(b, opQueueDrain, queue), uint64(len(removed)))
		for _, idx := range removed {
			b = wal.AppendUvarint(b, uint64(idx))
		}
		return b
	})
}

// apply replays one record — live-journaled or snapshot-compacted —
// into the broker.
func (p *Persister) apply(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("brokerwal: empty record")
	}
	d := wal.NewDec(rec[1:])
	switch rec[0] {
	case opDurableSub:
		name, topic, sel := d.String(), d.String(), d.String()
		if err := d.Err(); err != nil {
			return err
		}
		return p.b.RestoreDurable(name, topic, sel)
	case opDurableUnsub:
		name := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		p.b.RestoreDurableDrop(name)
	case opDurableFlush:
		name := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		p.b.RestoreDurableFlush(name)
	case opDurableStore, opQueueStore:
		name := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		m, err := wire.UnmarshalMessage(d.Rest())
		if err != nil {
			return err
		}
		if rec[0] == opDurableStore {
			p.b.RestoreDurableStore(name, m)
		} else {
			p.b.RestoreQueueStore(name, m)
		}
	case opQueueDrain:
		queue := d.String()
		n := d.Uvarint()
		if n > uint64(len(d.Rest())) { // each index costs ≥1 byte
			return fmt.Errorf("brokerwal: drain count %d exceeds record", n)
		}
		removed := make([]int, 0, n)
		for i := uint64(0); i < n; i++ {
			removed = append(removed, int(d.Uvarint()))
		}
		if err := d.Err(); err != nil {
			return err
		}
		p.b.RestoreQueueDrain(queue, removed)
	default:
		return fmt.Errorf("brokerwal: unknown op %d", rec[0])
	}
	return nil
}

// dump re-emits the broker's durable state as compacted records for a
// snapshot: each durable's identity then its backlog in order, then
// every queue backlog.
func (p *Persister) dump(emit func(rec []byte) error) error {
	for _, dd := range p.b.DumpDurables() {
		if err := emit(appendDurableSub(nil, dd.Name, dd.Topic, dd.Selector)); err != nil {
			return err
		}
		for _, m := range dd.Backlog {
			if err := emit(appendStore(nil, opDurableStore, dd.Name, m)); err != nil {
				return err
			}
		}
	}
	for _, qd := range p.b.DumpQueues() {
		for _, m := range qd.Backlog {
			if err := emit(appendStore(nil, opQueueStore, qd.Name, m)); err != nil {
				return err
			}
		}
	}
	return nil
}
