// Persistence seam for the R-GMA core's durable state: the schema
// (tables), producer resources with their tuple stores, and polling
// consumer resources. The core stays storage-agnostic — it emits
// mutation callbacks through the Journal interface (package rgmawal
// implements it over a write-ahead log) and exposes Restore*/
// DumpPersistent so a recovery layer can rebuild and snapshot the same
// state.
//
// What is durable and what is not: tables, producers (identity,
// retention configuration, retained tuples) and polling consumers
// (identity + query) persist; push-fed consumers (whose sink is a live
// transport connection) and the undrained buffers of polling continuous
// consumers do not — buffered tuples are in-flight deliveries, dropped
// at a crash exactly as the broker drops unacknowledged deliveries.

package rgmacore

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// Journal observes the core's durable-state mutations. Creation and
// close callbacks fire after the mutation is installed; Inserted fires
// after the tuple is stored and before it streams, so a transport
// acknowledgement sent after Insert returns implies the record was
// appended (and, with fsync, durable). Callbacks for independent
// resources may fire concurrently; callbacks for one resource follow
// the caller's ordering. Implementations must not call back into the
// Core.
type Journal interface {
	// TableCreated records a new table's canonical CREATE TABLE text
	// (sqlmini.Table.CreateSQL). Identical re-creates are not journaled.
	TableCreated(sql string)
	// ProducerCreated records a producer resource with its pinned id and
	// effective (post-default) retention periods.
	ProducerCreated(id int64, table string, latestRetention, historyRetention sim.Time)
	// ProducerClosed records producer release.
	ProducerClosed(id int64)
	// Inserted records one stored tuple: the producer, the core-clock
	// insertion instant, and the INSERT text that produced it.
	Inserted(producerID int64, at sim.Time, sql string)
	// ConsumerCreated records a polling consumer (push-fed consumers are
	// connection-scoped and never journaled) with its pinned id.
	ConsumerCreated(id int64, query string, qtype rgma.QueryType)
	// ConsumerClosed records polling-consumer release.
	ConsumerClosed(id int64)
}

// SetJournal installs the mutation observer. Registration is atomic and
// takes effect for mutations that begin afterwards. Pass nil to detach.
func (c *Core) SetJournal(j Journal) {
	if j == nil {
		c.journal.Store(nil)
		return
	}
	c.journal.Store(&j)
}

func (c *Core) loadJournal() Journal {
	if p := c.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// ---- Restore API ----
//
// The replay path: a recovery layer feeds journaled mutations back
// through these before the core serves transports. They apply the same
// state changes as the journaled operations but never re-journal, never
// stream to consumers, and never touch the service counters. Restored
// ids are pinned and the id allocator is bumped past them, so resources
// created after recovery cannot collide.

// RestoreTable replays a TableCreated record.
func (c *Core) RestoreTable(sql string) error {
	_, err := c.createTable(sql, false)
	return err
}

// RestoreProducer replays a ProducerCreated record with its original id.
func (c *Core) RestoreProducer(id int64, table string, latestRetention, historyRetention sim.Time) error {
	c.bumpNextID(id)
	_, err := c.addProducer(id, table, latestRetention, historyRetention, false)
	return err
}

// RestoreProducerClose replays a ProducerClosed record. A missing id is
// tolerated (a compacting snapshot may already have dropped it).
func (c *Core) RestoreProducerClose(id int64) {
	if err := c.closeProducer(id, false); err != nil && !errors.Is(err, ErrNotFound) {
		panic(err) // closeProducer only fails with ErrNotFound
	}
}

// RestoreInsert replays an Inserted record: the tuple is stored with its
// original insertion instant and does not stream (replayed continuous
// consumers start with empty buffers — buffered tuples are in-flight
// state, not durable state). A missing producer is tolerated.
func (c *Core) RestoreInsert(producerID int64, at sim.Time, sqlText string) error {
	st, err := sqlmini.Parse(sqlText)
	if err != nil {
		return err
	}
	ins, isInsert := st.(sqlmini.Insert)
	if !isInsert {
		return fmt.Errorf("rgma: expected INSERT")
	}
	p, exists := c.LookupProducer(producerID)
	if !exists {
		return nil
	}
	row, err := sqlmini.ReorderInsert(p.table, ins)
	if err != nil {
		return err
	}
	p.store.Insert(rgma.Tuple{Row: row, SentAt: at, InsertedAt: at})
	return nil
}

// RestoreConsumer replays a ConsumerCreated record with its original id.
func (c *Core) RestoreConsumer(id int64, query string, qtype rgma.QueryType) error {
	c.bumpNextID(id)
	_, err := c.addConsumer(id, query, qtype, nil, false)
	return err
}

// RestoreConsumerClose replays a ConsumerClosed record. A missing id is
// tolerated.
func (c *Core) RestoreConsumerClose(id int64) {
	if err := c.closeConsumer(id, false); err != nil && !errors.Is(err, ErrNotFound) {
		panic(err) // closeConsumer only fails with ErrNotFound
	}
}

// bumpNextID raises the id allocator to at least id.
func (c *Core) bumpNextID(id int64) {
	for {
		cur := c.nextID.Load()
		if id <= cur || c.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// SetClockOrigin restarts the core clock from origin: Now() returns
// origin plus wall time elapsed since the call. Recovery uses it to
// continue the clock past the newest replayed insertion instant, so
// replayed tuples age out under the same retention arithmetic they
// would have seen without the restart (a clock rewound to zero would
// make every replayed tuple appear to come from the future and never
// expire). Must be called while the core is quiescent.
func (c *Core) SetClockOrigin(origin sim.Time) {
	c.start = time.Now()
	c.clock = func() sim.Time { return origin + sim.Time(time.Since(c.start).Nanoseconds()) }
}

// ---- Dump API ----
//
// Snapshot accessors: a recovery layer re-emits the returned state as
// compacted records. The core must be quiescent for the dump to be a
// consistent cut — the daemons dump only during startup recovery and
// shutdown.

// ProducerDump is one producer's persistent state. Tuples is the
// store's retained content in replay order (rgma.TupleStore.Dump);
// re-inserting each with its InsertedAt stamp rebuilds the store.
type ProducerDump struct {
	ID               int64
	Table            string
	LatestRetention  sim.Time
	HistoryRetention sim.Time
	Tuples           []rgma.Tuple
}

// ConsumerDump is one polling consumer's persistent state.
type ConsumerDump struct {
	ID    int64
	Query string
	Type  rgma.QueryType
}

// PersistentState is a consistent cut of everything the core persists.
type PersistentState struct {
	Tables    []string // canonical CREATE TABLE texts, sorted
	Producers []ProducerDump
	Consumers []ConsumerDump
}

// DumpPersistent snapshots the core's durable state: table schemas in
// name order, producers and polling consumers in id order. Requires
// quiescence (see above).
func (c *Core) DumpPersistent() PersistentState {
	var st PersistentState
	c.tab.mu.RLock()
	for _, tab := range c.tab.tables {
		st.Tables = append(st.Tables, tab.CreateSQL())
	}
	c.tab.mu.RUnlock()
	sort.Strings(st.Tables)
	c.res.mu.RLock()
	for _, p := range c.res.producers {
		st.Producers = append(st.Producers, ProducerDump{
			ID:               p.id,
			Table:            p.tableName,
			LatestRetention:  p.latestRetention,
			HistoryRetention: p.historyRetention,
			Tuples:           p.store.Dump(),
		})
	}
	for _, cn := range c.res.consumers {
		if cn.sink != nil {
			continue
		}
		st.Consumers = append(st.Consumers, ConsumerDump{ID: cn.id, Query: cn.rawQuery, Type: cn.qtype})
	}
	c.res.mu.RUnlock()
	sort.Slice(st.Producers, func(i, j int) bool { return st.Producers[i].ID < st.Producers[j].ID })
	sort.Slice(st.Consumers, func(i, j int) bool { return st.Consumers[i].ID < st.Consumers[j].ID })
	return st
}
