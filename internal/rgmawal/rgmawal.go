// Package rgmawal persists an R-GMA core's durable state — table
// schemas, producer resources with their tuple stores, polling consumer
// resources — through the segmented write-ahead log in package wal,
// mirroring what package brokerwal does for the broker. It implements
// rgmacore.Journal on one side and drives rgmacore's Restore API on the
// other; snapshot records are re-emitted operations in the same
// encoding as live journal records, so recovery is one decode path.
//
// Recovery also restarts the core clock: tuple retention works in
// nanoseconds since core start, so Open continues the clock just past
// the newest replayed insertion instant — replayed tuples then age out
// under exactly the retention arithmetic they would have seen had the
// process never died.
//
// The same quiescence rule as brokerwal applies: journal callbacks may
// append from inside core shard locks, but Snapshot/CloseClean dump
// core state while Snapshot owns the file, so they must only run while
// nothing mutates the core (daemon startup and shutdown).
package rgmawal

import (
	"fmt"
	"sync"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
)

// Record encoding: one op byte, then wal/codec fields. SQL texts ride
// last where possible, undelimited.
const (
	opTable         = 1 // sql
	opProducer      = 2 // id, latestRetention, historyRetention, table
	opProducerClose = 3 // id
	opInsert        = 4 // producerID, at, sql
	opConsumer      = 5 // id, qtype, query
	opConsumerClose = 6 // id
)

// Persister implements rgmacore.Journal over a wal.Log. Callback
// methods are safe for concurrent use; Snapshot, CloseClean and Close
// require core quiescence.
type Persister struct {
	log  *wal.Log
	core *rgmacore.Core

	// maxAt tracks the newest insertion instant seen during replay; it
	// becomes the recovered clock origin. Only touched by apply, which
	// wal.Open calls sequentially.
	maxAt sim.Time
}

var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Open recovers core state from the log directory and wires the
// persister in: replay through the Restore API, continue the core
// clock past the newest replayed tuple, compact the replayed state into
// a fresh snapshot, and attach as the core's journal. The core must be
// quiescent — not yet serving transports — for the duration.
func Open(fsys walfs.FS, opts wal.Options, core *rgmacore.Core) (*Persister, wal.RecoverInfo, error) {
	p := &Persister{core: core}
	log, info, err := wal.Open(fsys, opts, p.apply)
	if err != nil {
		return nil, info, err
	}
	p.log = log
	if p.maxAt > 0 {
		core.SetClockOrigin(p.maxAt + 1)
	}
	if info.Records > 0 && !info.CleanStart {
		if err := log.Snapshot(p.dump); err != nil {
			_ = log.Close()
			return nil, info, err
		}
	}
	core.SetJournal(p)
	return p, info, nil
}

// Stats proxies the log's counters.
func (p *Persister) Stats() wal.Stats { return p.log.Stats() }

// Err reports the log's poisoning error, if any I/O has failed.
func (p *Persister) Err() error { return p.log.Err() }

// CloseClean detaches from the core, snapshots its durable state and
// installs the clean-shutdown marker. Requires quiescence.
func (p *Persister) CloseClean() error {
	p.core.SetJournal(nil)
	return p.log.CloseClean(p.dump)
}

// Close detaches and releases the log without marking it clean; the
// next Open replays as after a crash.
func (p *Persister) Close() error {
	p.core.SetJournal(nil)
	return p.log.Close()
}

func (p *Persister) append(buf *[]byte) {
	_ = p.log.Append(*buf)
	*buf = (*buf)[:0]
	encPool.Put(buf)
}

func (p *Persister) TableCreated(sql string) {
	bp := encPool.Get().(*[]byte)
	*bp = append(append(*bp, opTable), sql...)
	p.append(bp)
}

func appendProducer(b []byte, id int64, table string, latest, history sim.Time) []byte {
	b = wal.AppendUvarint(b, uint64(id))
	b = wal.AppendUvarint(b, uint64(latest))
	b = wal.AppendUvarint(b, uint64(history))
	return append(b, table...)
}

func (p *Persister) ProducerCreated(id int64, table string, latestRetention, historyRetention sim.Time) {
	bp := encPool.Get().(*[]byte)
	*bp = appendProducer(append(*bp, opProducer), id, table, latestRetention, historyRetention)
	p.append(bp)
}

func (p *Persister) ProducerClosed(id int64) {
	bp := encPool.Get().(*[]byte)
	*bp = wal.AppendUvarint(append(*bp, opProducerClose), uint64(id))
	p.append(bp)
}

func appendInsert(b []byte, producerID int64, at sim.Time, sql string) []byte {
	b = wal.AppendUvarint(b, uint64(producerID))
	b = wal.AppendUvarint(b, uint64(at))
	return append(b, sql...)
}

func (p *Persister) Inserted(producerID int64, at sim.Time, sql string) {
	bp := encPool.Get().(*[]byte)
	*bp = appendInsert(append(*bp, opInsert), producerID, at, sql)
	p.append(bp)
}

func appendConsumer(b []byte, id int64, qtype rgma.QueryType, query string) []byte {
	b = wal.AppendUvarint(b, uint64(id))
	b = wal.AppendUvarint(b, uint64(qtype))
	return append(b, query...)
}

func (p *Persister) ConsumerCreated(id int64, query string, qtype rgma.QueryType) {
	bp := encPool.Get().(*[]byte)
	*bp = appendConsumer(append(*bp, opConsumer), id, qtype, query)
	p.append(bp)
}

func (p *Persister) ConsumerClosed(id int64) {
	bp := encPool.Get().(*[]byte)
	*bp = wal.AppendUvarint(append(*bp, opConsumerClose), uint64(id))
	p.append(bp)
}

// apply replays one record — live-journaled or snapshot-compacted —
// into the core.
func (p *Persister) apply(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("rgmawal: empty record")
	}
	d := wal.NewDec(rec[1:])
	switch rec[0] {
	case opTable:
		return p.core.RestoreTable(string(d.Rest()))
	case opProducer:
		id := int64(d.Uvarint())
		latest := sim.Time(d.Uvarint())
		history := sim.Time(d.Uvarint())
		if err := d.Err(); err != nil {
			return err
		}
		return p.core.RestoreProducer(id, string(d.Rest()), latest, history)
	case opProducerClose:
		id := int64(d.Uvarint())
		if err := d.Err(); err != nil {
			return err
		}
		p.core.RestoreProducerClose(id)
	case opInsert:
		id := int64(d.Uvarint())
		at := sim.Time(d.Uvarint())
		if err := d.Err(); err != nil {
			return err
		}
		if at > p.maxAt {
			p.maxAt = at
		}
		return p.core.RestoreInsert(id, at, string(d.Rest()))
	case opConsumer:
		id := int64(d.Uvarint())
		qtype := rgma.QueryType(d.Uvarint())
		if err := d.Err(); err != nil {
			return err
		}
		return p.core.RestoreConsumer(id, string(d.Rest()), qtype)
	case opConsumerClose:
		id := int64(d.Uvarint())
		if err := d.Err(); err != nil {
			return err
		}
		p.core.RestoreConsumerClose(id)
	default:
		return fmt.Errorf("rgmawal: unknown op %d", rec[0])
	}
	return nil
}

// dump re-emits the core's durable state as compacted records: schemas
// first, then each producer followed by its retained tuples (stamped
// with their original insertion instants), then polling consumers.
// Requires core quiescence (see package doc).
func (p *Persister) dump(emit func(rec []byte) error) error {
	st := p.core.DumpPersistent()
	for _, sql := range st.Tables {
		if err := emit(append([]byte{opTable}, sql...)); err != nil {
			return err
		}
	}
	for _, pd := range st.Producers {
		rec := appendProducer([]byte{opProducer}, pd.ID, pd.Table, pd.LatestRetention, pd.HistoryRetention)
		if err := emit(rec); err != nil {
			return err
		}
		for _, t := range pd.Tuples {
			rec := appendInsert([]byte{opInsert}, pd.ID, t.InsertedAt, sqlmini.InsertSQL(pd.Table, t.Row))
			if err := emit(rec); err != nil {
				return err
			}
		}
	}
	for _, cd := range st.Consumers {
		if err := emit(appendConsumer([]byte{opConsumer}, cd.ID, cd.Type, cd.Query)); err != nil {
			return err
		}
	}
	return nil
}
