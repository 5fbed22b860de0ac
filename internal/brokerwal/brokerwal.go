// Package brokerwal persists a broker core's durable state — durable
// subscriptions, their disconnected backlogs, and queue backlogs —
// through the segmented write-ahead log in package wal. It is the glue
// between two seams that know nothing of each other: broker.Journal
// (mutation callbacks fired under the broker's shard locks) on one
// side, wal.Log (group-committed CRC-framed records over a walfs
// backend) on the other.
//
// Open replays the log into a quiescent broker via the Restore API,
// compacts what it replayed into a fresh snapshot, and attaches itself
// as the broker's journal. Snapshot records are re-emitted operations
// in the same encoding as live journal records, so recovery is one
// decode path regardless of where a record came from.
//
// Locking: journal callbacks append to the log from inside broker shard
// locks, which is safe because wal.Append only touches the log's own
// lock and files. The reverse direction — Snapshot and CloseClean dump
// broker state while Snapshot owns the file — would deadlock against a
// concurrent mutation blocked in Append, so both require the broker to
// be quiescent; the daemons call them only during startup recovery and
// after the listener has closed.
package brokerwal

import (
	"fmt"
	"sync"

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

// Persister implements broker.Journal over a wal.Log. Callback methods
// are safe for concurrent use (different shards journal concurrently);
// Snapshot, CloseClean and Close require broker quiescence.
type Persister struct {
	log *wal.Log
	b   *broker.Broker
}

// encPool recycles record-encode buffers across journal callbacks, the
// same pooling idiom as the jms writer's encode buffers.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Open recovers broker state from the log directory and wires the
// persister in: replay every journaled mutation through the broker's
// Restore API, compact the result into a fresh snapshot (so startup
// cost does not accrue across restarts), and attach the persister as
// the broker's journal. The broker must be quiescent — not yet serving
// connections — for the duration of the call; jms.NewServerRestored's
// callback is the intended site.
func Open(fsys walfs.FS, opts wal.Options, b *broker.Broker) (*Persister, wal.RecoverInfo, error) {
	p := &Persister{b: b}
	log, info, err := wal.Open(fsys, opts, p.apply)
	if err != nil {
		return nil, info, err
	}
	p.log = log
	if info.Records > 0 && !info.CleanStart {
		if err := log.Snapshot(p.dump); err != nil {
			_ = log.Close()
			return nil, info, err
		}
	}
	b.SetJournal(p)
	return p, info, nil
}

// Stats proxies the log's counters.
func (p *Persister) Stats() wal.Stats { return p.log.Stats() }

// Err reports the log's poisoning error, if any I/O has failed.
func (p *Persister) Err() error { return p.log.Err() }

// CloseClean detaches from the broker, snapshots its durable state and
// installs the clean-shutdown marker, letting the next Open skip the
// replay scan. Requires quiescence (call after the server has closed).
func (p *Persister) CloseClean() error {
	p.b.SetJournal(nil)
	return p.log.CloseClean(p.dump)
}

// Close detaches and releases the log without marking it clean; the
// next Open replays as after a crash.
func (p *Persister) Close() error {
	p.b.SetJournal(nil)
	return p.log.Close()
}

// append encodes nothing itself — it ships a pooled buffer the caller
// filled to the log and recycles it. Append errors are swallowed here:
// the first one poisons the log, the daemons surface it via Err and the
// stats endpoints, and the broker (which cannot unwind a mutation that
// already happened) keeps serving from memory.
func (p *Persister) append(buf *[]byte) {
	_ = p.log.Append(*buf)
	*buf = (*buf)[:0]
	encPool.Put(buf)
}

func (p *Persister) DurableSubscribed(name, topic, selector string) {
	bp := encPool.Get().(*[]byte)
	b := append(*bp, opDurableSub)
	b = wal.AppendString(b, name)
	b = wal.AppendString(b, topic)
	*bp = wal.AppendString(b, selector)
	p.append(bp)
}

func (p *Persister) DurableUnsubscribed(name string) {
	bp := encPool.Get().(*[]byte)
	*bp = wal.AppendString(append(*bp, opDurableUnsub), name)
	p.append(bp)
}

func (p *Persister) DurableStored(name string, m *message.Message) {
	bp := encPool.Get().(*[]byte)
	b := wal.AppendString(append(*bp, opDurableStore), name)
	*bp = wire.MarshalMessage(b, m)
	p.append(bp)
}

func (p *Persister) DurableFlushed(name string) {
	bp := encPool.Get().(*[]byte)
	*bp = wal.AppendString(append(*bp, opDurableFlush), name)
	p.append(bp)
}

func (p *Persister) QueueStored(queue string, m *message.Message) {
	bp := encPool.Get().(*[]byte)
	b := wal.AppendString(append(*bp, opQueueStore), queue)
	*bp = wire.MarshalMessage(b, m)
	p.append(bp)
}

func (p *Persister) QueueDrained(queue string, removed []int) {
	bp := encPool.Get().(*[]byte)
	b := wal.AppendString(append(*bp, opQueueDrain), queue)
	b = wal.AppendUvarint(b, uint64(len(removed)))
	for _, idx := range removed {
		b = wal.AppendUvarint(b, uint64(idx))
	}
	*bp = b
	p.append(bp)
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
	case opDurableStore:
		name := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		m, err := wire.UnmarshalMessage(d.Rest())
		if err != nil {
			return err
		}
		p.b.RestoreDurableStore(name, m)
	case opQueueStore:
		queue := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		m, err := wire.UnmarshalMessage(d.Rest())
		if err != nil {
			return err
		}
		p.b.RestoreQueueStore(queue, m)
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
// every queue backlog. Requires broker quiescence (see package doc).
func (p *Persister) dump(emit func(rec []byte) error) error {
	for _, dd := range p.b.DumpDurables() {
		b := wal.AppendString([]byte{opDurableSub}, dd.Name)
		b = wal.AppendString(b, dd.Topic)
		if err := emit(wal.AppendString(b, dd.Selector)); err != nil {
			return err
		}
		for _, m := range dd.Backlog {
			b := wal.AppendString([]byte{opDurableStore}, dd.Name)
			if err := emit(wire.MarshalMessage(b, m)); err != nil {
				return err
			}
		}
	}
	for _, qd := range p.b.DumpQueues() {
		for _, m := range qd.Backlog {
			b := wal.AppendString([]byte{opQueueStore}, qd.Name)
			if err := emit(wire.MarshalMessage(b, m)); err != nil {
				return err
			}
		}
	}
	return nil
}
