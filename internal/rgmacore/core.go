// Package rgmacore is the transport-neutral R-GMA service core: the
// schema/resource state machine that both real-network bindings wrap —
// internal/rgmahttp (JSON request/response, the gLite servlet baseline)
// and internal/rgmabin (persistent-connection binary framing with
// server-push continuous queries). It composes the concurrency-safe half
// of internal/rgma (TupleStore) with internal/sqlmini parsing and
// compiled WHERE predicates. The resource domain is the one record of
// every producer and consumer: the core routes through its own table
// indexes and needs no registry mediation.
//
// # Concurrency
//
// State is guarded by locks, not handed to worker goroutines, so calls
// run on whatever transport goroutine made them. Two lock domains exist
// — the table domain (schemas plus the per-table continuous-consumer
// and producer indexes) and the resource domain (producer/consumer
// handles keyed by resource id) — plus a per-consumer buffer lock and
// the internally locked rgma.TupleStore. They stay separate so that a
// CreateTable, which journals under the table lock, never stalls the
// resource lookup every Insert makes. Inserts read-lock the resource
// domain only, so producers inserting into different producer resources
// and consumers popping different consumers proceed in parallel.
//
// The hot read paths are lock-free: Insert's continuous-consumer scan
// and Pop's latest/history producer gather read a copy-on-write
// snapshot of the table domain's indexes published through an atomic
// pointer (tableSnap), so inserts into the *same* table never serialize
// on the table lock either. Index mutations (create/close
// producer/consumer) take the table write lock and republish the
// snapshot before releasing it.
//
// Ordering: a producer whose inserts are issued sequentially (each call
// returning before the next is made) streams to every continuous
// consumer in insert order, and its history reads in the same order.
// Only inserts issued concurrently for the *same* producer resource
// have no defined order (store append and consumer fan-out are separate
// critical sections). Inserts from different producers are never
// ordered relative to each other.
//
// # Continuous delivery
//
// A continuous consumer is either buffered (nil sink: matching tuples
// queue in a bounded drop-oldest buffer until Pop drains them — the
// polling transports' model) or push-fed (non-nil sink: the sink is
// invoked inline on the inserting goroutine for every match, and Pop is
// refused). Sinks must not block and must not call back into the Core
// for the same table; they run with no core lock held.
package rgmacore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/predindex"
	"gridmon/internal/rgma"
	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// Sentinel error kinds transports map onto their status vocabulary
// (HTTP: 404/409; binary: error-frame codes). Anything else a Core
// method returns is a bad request (HTTP 400).
var (
	ErrNotFound = errors.New("rgma: not found")
	ErrConflict = errors.New("rgma: conflict")
)

// Default retention periods substituted when a producer is created with
// non-positive retention, matching the paper's test configuration
// (30 s latest, 1 min history).
const (
	DefaultLatestRetention  = 30 * sim.Second
	DefaultHistoryRetention = 60 * sim.Second
)

// DefaultMaxBuffered caps an un-popped buffered continuous consumer's
// queue. An abandoned poller then costs at most this many tuples, not
// the paper's §III.F unbounded-heap failure mode.
const DefaultMaxBuffered = 16384

// insertsPerSweep amortizes retention sweeps on the insert path: a
// producer's store is purged at least every insertsPerSweep inserts and
// whenever the sweep deadline (half the shorter retention period) has
// passed, so stores serving only continuous consumers — the paper's
// primary workload, which never touches the latest/history read paths —
// still shed expired history.
const insertsPerSweep = 64

// Config tunes a Core.
type Config struct {
	// MaxBuffered caps each buffered continuous consumer's undrained
	// tuples; when full the oldest tuple is dropped and counted. A value
	// <= 0 means DefaultMaxBuffered.
	MaxBuffered int
}

// Core is the shared R-GMA service state.
type Core struct {
	tab         tableDomain // schemas and per-table indexes
	res         resDomain   // producer and consumer handles by id
	nextID      atomic.Int64
	maxBuffered int

	// rowScratches pools the indexed insert path's per-call scratch
	// (candidate buffer + row-probe adapter), recycled across inserts.
	rowScratches sync.Pool

	// journal is the persistence seam (see journal.go); nil-by-default
	// keeps every mutation path at one atomic load when persistence is
	// off.
	journal atomic.Pointer[Journal]

	inserts        atomic.Uint64
	pops           atomic.Uint64
	tuplesStreamed atomic.Uint64
	tuplesPopped   atomic.Uint64
	tuplesDropped  atomic.Uint64

	matchProgramEvals  atomic.Uint64
	matchConsumersSkip atomic.Uint64

	start time.Time
	// clock returns the service's notion of now (nanoseconds since
	// start, the domain TupleStore retention works in). Tests override
	// it to exercise retention without sleeping.
	clock func() sim.Time
}

// tableDomain owns everything about the tables: each schema entry, each
// table's continuous consumers (the insert-time streaming index) and its
// producers (the latest/history gather index), both in registration
// order.
type tableDomain struct {
	mu     sync.RWMutex
	tables map[string]*sqlmini.Table
	// routes holds the writer's copy of each table's read-path state,
	// patched under mu (write lock) and published through snap.
	routes map[string]*tableRoute

	// snap is the copy-on-write snapshot of the read-path state,
	// published through an atomic pointer so Insert's consumer scan and
	// Pop's producer gather run with no table lock at all (the broker's
	// snapshot.go pattern). Stored only under mu (write lock); loaded
	// without it.
	snap atomic.Pointer[tableSnap]
}

// compactAt is the number of consumer-slot tombstones at which a table
// renumbers its continuous consumers densely, given the number of live
// ones: holes may grow to the live count, so a compaction's O(n) is
// amortised over at least as many closes; the floor spares small tables
// a compaction on nearly every close. Tests force it to 1 to compact on
// every close.
var compactAt = func(live int) int { return max(8, live) }

// tableSnap is the published read-path state: per table, an
// immutable route. Tables with neither producers nor continuous
// consumers are absent.
type tableSnap struct {
	routes map[string]*tableRoute
}

// tableRoute is one table's read-path state. A published tableRoute is
// immutable; the writer's copy in tableDomain.routes shares its frozen
// producers slice and its index with the published ones, and patches
// only its continuous slice in place — which is why publishing clones
// that slice.
type tableRoute struct {
	// continuous holds the table's continuous consumers by matching-index
	// seq: a consumer keeps its seq until it closes, which leaves a nil
	// tombstone; compaction renumbers the rest in order.
	continuous []*Consumer
	// live counts the non-nil continuous entries.
	live int
	// idx is the content-based matching index over the live continuous
	// consumers, consulted by streamInsert; nil when there are none.
	idx *predindex.Index
	// producers is the latest/history gather list, in registration order.
	producers []*Producer
}

// route returns the writer's copy of a table's route, creating it on
// first use. Write lock held.
func (d *tableDomain) route(table string) *tableRoute {
	r := d.routes[table]
	if r == nil {
		r = &tableRoute{}
		d.routes[table] = r
	}
	return r
}

// addContinuous appends a continuous consumer, with a seq after every
// live one so candidates keep registration order. Write lock held.
func (r *tableRoute) addContinuous(cn *Consumer) {
	cn.seq = int32(len(r.continuous))
	r.continuous = append(r.continuous, cn)
	r.idx = r.idx.With(cn.seq, cn.matchKey)
	r.live++
}

// removeContinuous tombstones a continuous consumer's slot, compacting
// once tombstones reach compactAt. Write lock held.
func (r *tableRoute) removeContinuous(cn *Consumer) {
	r.continuous[cn.seq] = nil
	r.idx = r.idx.Without(cn.seq)
	r.live--
	if len(r.continuous)-r.live < compactAt(r.live) {
		return
	}
	// Renumber 0..live-1 in the current order — the order
	// predindex.Compact renumbers the index in.
	r.idx = r.idx.Compact()
	live := make([]*Consumer, 0, r.live)
	for _, c := range r.continuous {
		if c != nil {
			c.seq = int32(len(live))
			live = append(live, c)
		}
	}
	r.continuous = live
}

// refreshSnap republishes the table snapshot after a mutation of one
// table's route: the map is copied, untouched tables share their routes
// with the previous generation, and the mutated table's route is
// published as a copy whose continuous slice is cloned from the
// writer's. Write lock held — that is what single-files snapshot
// writers.
func (d *tableDomain) refreshSnap(table string) {
	var cur map[string]*tableRoute
	if snap := d.snap.Load(); snap != nil {
		cur = snap.routes
	}
	next := &tableSnap{routes: make(map[string]*tableRoute, len(cur)+1)}
	for k, v := range cur {
		if k != table {
			next.routes[k] = v
		}
	}
	if r := d.routes[table]; r != nil {
		if r.live == 0 && len(r.producers) == 0 {
			delete(d.routes, table)
		} else {
			pub := *r
			pub.continuous = slices.Clone(r.continuous)
			next.routes[table] = &pub
		}
	}
	d.snap.Store(next)
}

// resDomain owns the producer and consumer handles by resource id.
type resDomain struct {
	mu        sync.RWMutex
	producers map[int64]*Producer
	consumers map[int64]*Consumer
}

// New constructs a Core.
func New(cfg Config) *Core {
	if cfg.MaxBuffered <= 0 {
		cfg.MaxBuffered = DefaultMaxBuffered
	}
	c := &Core{
		tab: tableDomain{
			tables: make(map[string]*sqlmini.Table),
			routes: make(map[string]*tableRoute),
		},
		res: resDomain{
			producers: make(map[int64]*Producer),
			consumers: make(map[int64]*Consumer),
		},
		maxBuffered: cfg.MaxBuffered,
		start:       time.Now(),
	}
	c.clock = func() sim.Time { return sim.Time(time.Since(c.start).Nanoseconds()) }
	return c
}

// Now returns the core's clock reading; TupleStore retention works in
// this domain.
func (c *Core) Now() sim.Time { return c.clock() }

// RegistryCounts reports live producer and consumer resources, counted
// in the resource domain under its read lock.
func (c *Core) RegistryCounts() (producers, consumers int) {
	c.res.mu.RLock()
	defer c.res.mu.RUnlock()
	return len(c.res.producers), len(c.res.consumers)
}

// --- resources ---

// Producer is one producer resource: a tuple store bound to a table,
// plus the amortized-sweep bookkeeping.
type Producer struct {
	id        int64
	tableName string
	table     *sqlmini.Table
	store     *rgma.TupleStore

	// Effective (post-default) retention periods, kept for persistence
	// dumps so a replayed producer purges identically.
	latestRetention  sim.Time
	historyRetention sim.Time

	// sweepInterval is half the shorter retention period: the deadline
	// cadence for insert-path purges.
	sweepInterval sim.Time
	sinceSweep    atomic.Uint32
	nextSweep     atomic.Int64
}

// ID returns the resource id.
func (p *Producer) ID() int64 { return p.id }

// Store exposes the producer's tuple store (tests and stats).
func (p *Producer) Store() *rgma.TupleStore { return p.store }

// maybeSweep runs the amortized insert-path retention sweep: purge when
// insertsPerSweep inserts have accumulated or the deadline passed.
// Purge is internally locked, so concurrent sweeps are merely redundant.
func (p *Producer) maybeSweep(now sim.Time) {
	if p.sinceSweep.Add(1) < insertsPerSweep && int64(now) < p.nextSweep.Load() {
		return
	}
	p.sinceSweep.Store(0)
	p.nextSweep.Store(int64(now + p.sweepInterval))
	p.store.Purge(now)
}

// Sink receives pushed tuples for one push-fed continuous consumer. It
// runs inline on the inserting goroutine, with no core lock held; it
// must not block and must not call back into the Core.
type Sink func(consumerID int64, t *Streamed)

// Consumer is one consumer resource.
type Consumer struct {
	id        int64
	query     sqlmini.Select
	rawQuery  string           // original SELECT text, journaled for replay
	prog      *sqlmini.Program // query.Where compiled against table
	matchKey  predindex.Key    // required-conjunct key of query.Where
	table     *sqlmini.Table
	tableName string
	qtype     rgma.QueryType

	sink Sink // non-nil: push-fed; nil: buffered

	// seq is a continuous consumer's matching-index seq in its table's
	// route; guarded by the table write lock.
	seq int32

	// Buffered-delivery state: a bounded ring. Until the cap is reached
	// buf grows by append; at the cap the oldest slot is overwritten
	// (drop-oldest), so an abandoned poller holds at most max tuples.
	mu      sync.Mutex
	buf     []PopTuple
	ringAt  int // index of the oldest tuple once the ring is full
	dropped uint64
}

// ID returns the resource id.
func (cn *Consumer) ID() int64 { return cn.id }

// Dropped reports tuples this consumer lost to the buffer cap.
func (cn *Consumer) Dropped() uint64 {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dropped
}

// push appends one streamed tuple under the consumer's buffer lock,
// dropping the oldest buffered tuple when the cap is reached.
func (cn *Consumer) push(t PopTuple, max int, coreDropped *atomic.Uint64) {
	cn.mu.Lock()
	if len(cn.buf) < max {
		cn.buf = append(cn.buf, t)
	} else {
		cn.buf[cn.ringAt] = t
		cn.ringAt = (cn.ringAt + 1) % len(cn.buf)
		cn.dropped++
		coreDropped.Add(1)
	}
	cn.mu.Unlock()
}

// drain empties the buffer in arrival order under the buffer lock.
func (cn *Consumer) drain() []PopTuple {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if len(cn.buf) == 0 {
		return nil
	}
	var out []PopTuple
	if cn.ringAt == 0 {
		out = cn.buf
	} else {
		out = make([]PopTuple, 0, len(cn.buf))
		out = append(out, cn.buf[cn.ringAt:]...)
		out = append(out, cn.buf[:cn.ringAt]...)
	}
	cn.buf, cn.ringAt = nil, 0
	return out
}

// PopTuple is one delivered tuple; cells are SQL literal forms. The
// JSON field names are the rgmahttp wire contract.
type PopTuple struct {
	Row        []string `json:"row"`
	InsertedAt int64    `json:"insertedAtNs"`
}

func toPop(t rgma.Tuple) PopTuple {
	cells := make([]string, len(t.Row))
	for i, v := range t.Row {
		cells[i] = v.String()
	}
	return PopTuple{Row: cells, InsertedAt: int64(t.InsertedAt)}
}

// Streamed is one insert's delivery to however many continuous
// consumers matched it: the cell rendering is computed once per insert,
// and Encoded caches a transport encoding computed at most once across
// all sinks (the rgmabin binding's encode-once path, the same pattern
// as message.CachedEncoding).
type Streamed struct {
	Tuple PopTuple

	once sync.Once
	enc  []byte
}

// Encoded returns encode(Tuple), computing it on the first call and
// returning the cached bytes to every later caller. All callers must
// pass the same encode function; the returned slice is shared and must
// not be mutated.
func (s *Streamed) Encoded(encode func(PopTuple) []byte) []byte {
	s.once.Do(func() { s.enc = encode(s.Tuple) })
	return s.enc
}

// --- schema ---

// CreateTable declares a table from a CREATE TABLE statement and
// returns its name. Re-creating a table with an identical schema is a
// no-op (the handle every existing producer and consumer holds stays
// valid); re-creating with a different schema is ErrConflict. The seed
// silently replaced the schema object, orphaning every resource created
// earlier: their table-identity checks stopped matching resources
// created later and streaming went dark for any old/new mix.
func (c *Core) CreateTable(sql string) (string, error) {
	return c.createTable(sql, true)
}

func (c *Core) createTable(sql string, journal bool) (string, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return "", err
	}
	ct, isCreate := st.(sqlmini.CreateTable)
	if !isCreate {
		return "", fmt.Errorf("rgma: expected CREATE TABLE")
	}
	name := ct.Table.Name
	c.tab.mu.Lock()
	defer c.tab.mu.Unlock()
	if old, ok := c.tab.tables[name]; ok {
		if sameSchema(old, &ct.Table) {
			return name, nil
		}
		return "", fmt.Errorf("%w: table %q already exists with a different schema", ErrConflict, name)
	}
	c.tab.tables[name] = &ct.Table
	if journal {
		if j := c.loadJournal(); j != nil {
			// The canonical rendering, not the client's text: replay must
			// reconstruct a schema that compares sameSchema-equal.
			j.TableCreated(ct.Table.CreateSQL())
		}
	}
	return name, nil
}

func sameSchema(a, b *sqlmini.Table) bool {
	return a.Name == b.Name && slices.Equal(a.Columns, b.Columns)
}

// --- producers ---

// CreateProducer allocates a producer resource with memory storage on
// an existing table. Non-positive retention selects the defaults.
func (c *Core) CreateProducer(table string, latestRetention, historyRetention sim.Time) (*Producer, error) {
	return c.addProducer(c.nextID.Add(1), table, latestRetention, historyRetention, true)
}

func (c *Core) addProducer(id int64, table string, latestRetention, historyRetention sim.Time, journal bool) (*Producer, error) {
	if latestRetention <= 0 {
		latestRetention = DefaultLatestRetention
	}
	if historyRetention <= 0 {
		historyRetention = DefaultHistoryRetention
	}
	c.tab.mu.RLock()
	tab, exists := c.tab.tables[table]
	c.tab.mu.RUnlock()
	if !exists {
		return nil, fmt.Errorf("%w: no such table %q", ErrNotFound, table)
	}
	p := &Producer{
		id:               id,
		tableName:        table,
		table:            tab,
		store:            rgma.NewTupleStore(tab, latestRetention, historyRetention),
		latestRetention:  latestRetention,
		historyRetention: historyRetention,
		sweepInterval:    min(latestRetention, historyRetention) / 2,
	}
	if p.sweepInterval <= 0 {
		p.sweepInterval = 1
	}
	c.res.mu.Lock()
	c.res.producers[p.id] = p
	c.res.mu.Unlock()
	c.tab.mu.Lock()
	r := c.tab.route(table)
	r.producers = append(slices.Clip(r.producers), p)
	c.tab.refreshSnap(table)
	c.tab.mu.Unlock()
	if journal {
		if j := c.loadJournal(); j != nil {
			j.ProducerCreated(p.id, table, latestRetention, historyRetention)
		}
	}
	return p, nil
}

// LookupProducer resolves a producer resource id.
func (c *Core) LookupProducer(id int64) (*Producer, bool) {
	c.res.mu.RLock()
	p, ok := c.res.producers[id]
	c.res.mu.RUnlock()
	return p, ok
}

// CloseProducer releases a producer resource.
func (c *Core) CloseProducer(id int64) error {
	return c.closeProducer(id, true)
}

func (c *Core) closeProducer(id int64, journal bool) error {
	c.res.mu.Lock()
	p, exists := c.res.producers[id]
	if exists {
		delete(c.res.producers, id)
	}
	c.res.mu.Unlock()
	if !exists {
		return fmt.Errorf("%w: no such producer %d", ErrNotFound, id)
	}
	c.tab.mu.Lock()
	r := c.tab.routes[p.tableName]
	r.producers = removeHandle(slices.Clone(r.producers), p)
	c.tab.refreshSnap(p.tableName)
	c.tab.mu.Unlock()
	if journal {
		if j := c.loadJournal(); j != nil {
			j.ProducerClosed(id)
		}
	}
	return nil
}

// removeHandle deletes one handle from an index slice; slices.Delete
// zeroes the vacated tail slot, so the handle does not leak.
func removeHandle[T comparable](hs []T, h T) []T {
	if i := slices.Index(hs, h); i >= 0 {
		return slices.Delete(hs, i, i+1)
	}
	return hs
}

// Insert parses one SQL INSERT, stores the tuple, runs the amortized
// retention sweep, and streams the tuple to the table's matching
// continuous consumers (buffered or push-fed). The cell rendering and
// any transport encoding happen at most once per insert regardless of
// how many consumers match.
func (c *Core) Insert(producerID int64, sqlText string) error {
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
		return fmt.Errorf("%w: no such producer %d", ErrNotFound, producerID)
	}
	row, err := sqlmini.ReorderInsert(p.table, ins)
	if err != nil {
		return err
	}
	now := c.clock()
	tuple := rgma.Tuple{Row: row, SentAt: now, InsertedAt: now}
	p.store.Insert(tuple)
	c.inserts.Add(1)
	if j := c.loadJournal(); j != nil {
		// The client's original text: replay re-parses and reorders it
		// against the same schema, reproducing the stored row exactly.
		// Appending before streaming means a transport ack sent after
		// Insert returns implies the tuple is journaled.
		j.Inserted(producerID, now, sqlText)
	}
	p.maybeSweep(now)
	// Stream to matching continuous consumers immediately (the network
	// bindings do not model the gLite streaming delay; the simulator
	// covers that behaviour). The table route's index narrows the scan
	// to this table's continuous consumers; the compiled predicate
	// decides per consumer; the one Streamed value is shared across all
	// of them. The consumer list comes from the copy-on-write snapshot —
	// no table lock is taken, so concurrent inserts into one table never
	// serialize here (sinks are non-blocking and the buffered ring has
	// its own lock).
	if snap := c.tab.snap.Load(); snap != nil {
		if r := snap.routes[p.tableName]; r != nil && r.live > 0 {
			c.streamInsert(r, p, row, tuple)
		}
	}
	return nil
}

// rowScratch is the pooled per-insert scratch of the indexed stream
// path: the candidate buffer and the probe adapter live in one pooled
// struct so handing &sc.probe to the index costs no allocation.
type rowScratch struct {
	buf   []int32
	probe sqlmini.RowSource
}

// streamInsert fans one inserted tuple out to the live continuous
// consumers of r (at least one) through r's matching index, both pinned
// by snapshot immutability.
//
// Consumers in r are registered against p's table by construction:
// addConsumer files each consumer under its table name, the table
// snapshot keys consumer lists by that same name, and CreateTable never
// replaces a live *Table (identical re-creates no-op, conflicting ones
// error), so cn.table == p.table holds for every entry and is not
// re-checked here. (Pop keeps its parallel check because it crosses
// producer and consumer handles supplied by the caller.)
func (c *Core) streamInsert(r *tableRoute, p *Producer, row sqlmini.Row, tuple rgma.Tuple) {
	var streamed *Streamed
	deliver := func(cn *Consumer) {
		if streamed == nil {
			streamed = &Streamed{Tuple: toPop(tuple)}
		}
		if cn.sink != nil {
			cn.sink(cn.id, streamed)
		} else {
			cn.push(streamed.Tuple, c.maxBuffered, &c.tuplesDropped)
		}
		c.tuplesStreamed.Add(1)
	}
	// Evaluate only the candidate consumers the discrimination index
	// emits (a superset of the true matchers, seq-sorted, so visit order
	// equals registration order).
	sc, _ := c.rowScratches.Get().(*rowScratch)
	if sc == nil {
		sc = &rowScratch{}
	}
	sc.probe.Table = p.table
	sc.probe.Row = row
	cands := r.idx.Candidates(&sc.probe, sc.buf[:0])
	for _, ci := range cands {
		if cn := r.continuous[ci]; cn.prog.Matches(row) {
			deliver(cn)
		}
	}
	if n := len(cands); n > 0 {
		c.matchProgramEvals.Add(uint64(n))
	}
	if skipped := r.live - len(cands); skipped > 0 {
		c.matchConsumersSkip.Add(uint64(skipped))
	}
	sc.probe.Table = nil
	sc.probe.Row = nil
	sc.buf = cands[:0]
	c.rowScratches.Put(sc)
}

// --- consumers ---

// ParseQueryType maps a transport's query-type token onto the rgma
// enumeration ("" defaults to continuous, as the seed HTTP API did).
func ParseQueryType(s string) (rgma.QueryType, error) {
	switch s {
	case "", "continuous":
		return rgma.ContinuousQuery, nil
	case "latest":
		return rgma.LatestQuery, nil
	case "history":
		return rgma.HistoryQuery, nil
	}
	return 0, fmt.Errorf("rgma: unknown query type %q", s)
}

// CreateConsumer installs a SELECT query of the given type. A non-nil
// sink makes a continuous consumer push-fed: every matching insert
// invokes the sink inline and Pop is refused. Sinks on non-continuous
// consumers are rejected (latest/history are request/response on every
// transport).
func (c *Core) CreateConsumer(query string, qtype rgma.QueryType, sink Sink) (*Consumer, error) {
	return c.addConsumer(c.nextID.Add(1), query, qtype, sink, true)
}

func (c *Core) addConsumer(id int64, query string, qtype rgma.QueryType, sink Sink, journal bool) (*Consumer, error) {
	sel, err := rgma.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	if sink != nil && qtype != rgma.ContinuousQuery {
		return nil, fmt.Errorf("rgma: %v queries are request/response, not push-fed", qtype)
	}
	c.tab.mu.RLock()
	tab, exists := c.tab.tables[sel.Table]
	c.tab.mu.RUnlock()
	if !exists {
		return nil, fmt.Errorf("%w: no such table %q", ErrNotFound, sel.Table)
	}
	cn := &Consumer{
		id:        id,
		query:     sel,
		rawQuery:  query,
		prog:      sel.Compiled(tab),
		matchKey:  sel.Where.RequiredKey(),
		table:     tab,
		tableName: sel.Table,
		qtype:     qtype,
		sink:      sink,
	}
	c.res.mu.Lock()
	c.res.consumers[cn.id] = cn
	c.res.mu.Unlock()
	if qtype == rgma.ContinuousQuery {
		c.tab.mu.Lock()
		c.tab.route(sel.Table).addContinuous(cn)
		c.tab.refreshSnap(sel.Table)
		c.tab.mu.Unlock()
	}
	if journal && sink == nil {
		// Push-fed consumers are bound to a live transport connection —
		// their sink dies with the process — so only polling (buffered or
		// latest/history) consumers are journaled.
		if j := c.loadJournal(); j != nil {
			j.ConsumerCreated(cn.id, query, qtype)
		}
	}
	return cn, nil
}

// LookupConsumer resolves a consumer resource id.
func (c *Core) LookupConsumer(id int64) (*Consumer, bool) {
	c.res.mu.RLock()
	cn, ok := c.res.consumers[id]
	c.res.mu.RUnlock()
	return cn, ok
}

// Pop reads a consumer: a buffered continuous consumer's queued stream,
// or a latest/history gather over the table's producers (registration
// order, via the table's index). Push-fed consumers are refused —
// their tuples travel through the sink.
func (c *Core) Pop(consumerID int64) ([]PopTuple, error) {
	cn, exists := c.LookupConsumer(consumerID)
	if !exists {
		return nil, fmt.Errorf("%w: no such consumer %d", ErrNotFound, consumerID)
	}
	c.pops.Add(1)
	var out []PopTuple
	switch cn.qtype {
	case rgma.ContinuousQuery:
		if cn.sink != nil {
			return nil, fmt.Errorf("%w: consumer %d is push-fed; tuples arrive via its stream", ErrConflict, consumerID)
		}
		out = cn.drain()
	case rgma.LatestQuery, rgma.HistoryQuery:
		// The gather list comes from the snapshot; each store locks
		// internally.
		var producers []*Producer
		if snap := c.tab.snap.Load(); snap != nil {
			if r := snap.routes[cn.tableName]; r != nil {
				producers = r.producers
			}
		}
		now := c.clock()
		for _, p := range producers {
			if p.table != cn.table {
				continue
			}
			var tuples []rgma.Tuple
			if cn.qtype == rgma.LatestQuery {
				tuples = p.store.LatestCompiled(now, cn.prog)
			} else {
				tuples = p.store.HistoryCompiled(now, cn.prog)
			}
			for _, t := range tuples {
				out = append(out, toPop(t))
			}
		}
	}
	c.tuplesPopped.Add(uint64(len(out)))
	return out, nil
}

// CloseConsumer releases a consumer resource; continuous consumers stop
// receiving streams.
func (c *Core) CloseConsumer(id int64) error {
	return c.closeConsumer(id, true)
}

func (c *Core) closeConsumer(id int64, journal bool) error {
	c.res.mu.Lock()
	cn, exists := c.res.consumers[id]
	if exists {
		delete(c.res.consumers, id)
	}
	c.res.mu.Unlock()
	if !exists {
		return fmt.Errorf("%w: no such consumer %d", ErrNotFound, id)
	}
	if cn.qtype == rgma.ContinuousQuery {
		c.tab.mu.Lock()
		c.tab.routes[cn.tableName].removeContinuous(cn)
		c.tab.refreshSnap(cn.tableName)
		c.tab.mu.Unlock()
	}
	if journal && cn.sink == nil {
		if j := c.loadJournal(); j != nil {
			j.ConsumerClosed(id)
		}
	}
	return nil
}

// --- stats ---

// Stats is the core's atomic counter snapshot, with the keys rgmad's
// GET /stats serves it under.
type Stats struct {
	Producers      int    `json:"producers"`
	Consumers      int    `json:"consumers"`
	Inserts        uint64 `json:"inserts"`
	Pops           uint64 `json:"pops"`
	TuplesStreamed uint64 `json:"tuplesStreamed"`
	TuplesPopped   uint64 `json:"tuplesPopped"`
	TuplesDropped  uint64 `json:"tuplesDropped"`
	// MatchProgramEvals counts compiled WHERE evaluations on the insert
	// stream path: one per candidate consumer the matching index
	// emitted. MatchConsumersSkipped counts consumers the index proved
	// could not match and never visited — it only skips consumers whose
	// predicate could not return TRUE.
	MatchProgramEvals     uint64 `json:"matchProgramEvals"`
	MatchConsumersSkipped uint64 `json:"matchConsumersSkipped"`
}

// StatsSnapshot reads the counters; safe from any goroutine.
func (c *Core) StatsSnapshot() Stats {
	p, cn := c.RegistryCounts()
	return Stats{
		Producers:      p,
		Consumers:      cn,
		Inserts:        c.inserts.Load(),
		Pops:           c.pops.Load(),
		TuplesStreamed: c.tuplesStreamed.Load(),
		TuplesPopped:   c.tuplesPopped.Load(),
		TuplesDropped:  c.tuplesDropped.Load(),

		MatchProgramEvals:     c.matchProgramEvals.Load(),
		MatchConsumersSkipped: c.matchConsumersSkip.Load(),
	}
}

// RetentionSeconds converts a client-requested retention period to the
// whole seconds the create-producer protocol carries, rounding UP so a
// sub-second request becomes 1 second rather than silently truncating
// to 0 — which the server would replace with its 30 s/60 s defaults.
// Non-positive periods are an error: a client that wants the server
// defaults asks for them by not overriding the retention at all.
func RetentionSeconds(d time.Duration) (int, error) {
	if d <= 0 {
		return 0, fmt.Errorf("rgma: retention period must be positive, got %v", d)
	}
	secs := int((d + time.Second - 1) / time.Second)
	return secs, nil
}

// RetentionFromSeconds converts the protocol's whole-second retention
// to the sim.Time domain the stores work in (0 stays 0, selecting the
// server defaults).
func RetentionFromSeconds(sec uint32) sim.Time { return sim.Time(sec) * sim.Second }
