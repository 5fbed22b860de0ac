// Package rgmawal persists an R-GMA core's durable state — table
// schemas, producer resources with their tuple stores, polling consumer
// resources — through a wal.Persister, as package brokerwal does for the
// broker. It implements rgmacore.Journal on one side and drives
// rgmacore's Restore/Dump API on the other. The quiescence rule for
// Open, CloseClean and Close is wal.Persister's.
//
// Recovery also restarts the core clock: tuple retention works in
// nanoseconds since core start, so Open continues the clock just past
// the newest replayed insertion instant — replayed tuples then age out
// under exactly the retention arithmetic they would have seen had the
// process never died.
package rgmawal

import (
	"fmt"

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

// Persister implements rgmacore.Journal over a wal.Persister, whose
// Stats, Err, CloseClean and Close it promotes. The callbacks are safe
// for concurrent use.
type Persister struct {
	*wal.Persister
	core *rgmacore.Core

	// maxAt tracks the newest insertion instant seen during replay; it
	// becomes the recovered clock origin. Only touched by apply, which
	// replay calls sequentially.
	maxAt sim.Time
}

// Open recovers core state from the log directory, compacts it and
// attaches the persister as the core's journal (wal.OpenPersister), then
// continues the core clock past the newest replayed tuple. The core must
// not yet be serving transports.
func Open(fsys walfs.FS, opts wal.Options, core *rgmacore.Core) (*Persister, wal.RecoverInfo, error) {
	p := &Persister{core: core}
	var info wal.RecoverInfo
	var err error
	if p.Persister, info, err = wal.OpenPersister[rgmacore.Journal](fsys, opts, core, p, p.apply, p.dump); err != nil {
		return nil, info, err
	}
	// The compaction dump in OpenPersister does not read the clock, so
	// the origin may be set after it.
	if p.maxAt > 0 {
		core.SetClockOrigin(p.maxAt + 1)
	}
	return p, info, nil
}

func appendID(b []byte, op byte, id int64) []byte {
	return wal.AppendUvarint(append(b, op), uint64(id))
}

func appendProducer(b []byte, id int64, table string, latest, history sim.Time) []byte {
	b = appendID(b, opProducer, id)
	b = wal.AppendUvarint(b, uint64(latest))
	b = wal.AppendUvarint(b, uint64(history))
	return append(b, table...)
}

func appendInsert(b []byte, producerID int64, at sim.Time, sql string) []byte {
	b = wal.AppendUvarint(appendID(b, opInsert, producerID), uint64(at))
	return append(b, sql...)
}

func appendConsumer(b []byte, id int64, qtype rgma.QueryType, query string) []byte {
	b = wal.AppendUvarint(appendID(b, opConsumer, id), uint64(qtype))
	return append(b, query...)
}

func (p *Persister) TableCreated(sql string) {
	p.Record(func(b []byte) []byte { return append(append(b, opTable), sql...) })
}

func (p *Persister) ProducerCreated(id int64, table string, latestRetention, historyRetention sim.Time) {
	p.Record(func(b []byte) []byte { return appendProducer(b, id, table, latestRetention, historyRetention) })
}

func (p *Persister) ProducerClosed(id int64) {
	p.Record(func(b []byte) []byte { return appendID(b, opProducerClose, id) })
}

func (p *Persister) Inserted(producerID int64, at sim.Time, sql string) {
	p.Record(func(b []byte) []byte { return appendInsert(b, producerID, at, sql) })
}

func (p *Persister) ConsumerCreated(id int64, query string, qtype rgma.QueryType) {
	p.Record(func(b []byte) []byte { return appendConsumer(b, id, qtype, query) })
}

func (p *Persister) ConsumerClosed(id int64) {
	p.Record(func(b []byte) []byte { return appendID(b, opConsumerClose, id) })
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
func (p *Persister) dump(emit func(rec []byte) error) error {
	st := p.core.DumpPersistent()
	for _, sql := range st.Tables {
		if err := emit(append([]byte{opTable}, sql...)); err != nil {
			return err
		}
	}
	for _, pd := range st.Producers {
		if err := emit(appendProducer(nil, pd.ID, pd.Table, pd.LatestRetention, pd.HistoryRetention)); err != nil {
			return err
		}
		for _, t := range pd.Tuples {
			if err := emit(appendInsert(nil, pd.ID, t.InsertedAt, sqlmini.InsertSQL(pd.Table, t.Row))); err != nil {
				return err
			}
		}
	}
	for _, cd := range st.Consumers {
		if err := emit(appendConsumer(nil, cd.ID, cd.Type, cd.Query)); err != nil {
			return err
		}
	}
	return nil
}
