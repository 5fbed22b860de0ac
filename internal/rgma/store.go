// Package rgma reproduces the Relational Grid Monitoring Architecture
// (R-GMA, gLite 3.0) as evaluated by the paper: a virtual database in
// which Primary Producers publish tuples via SQL INSERT into memory
// storage with latest/history retention, Secondary Producers re-publish
// with their deliberate ~30 s delay, Consumers run continuous, latest or
// history SELECT queries mediated through a Registry, and subscribers
// poll their consumer every 100 ms.
//
// The performance-relevant mechanisms the paper observed are modelled
// explicitly: servlet/HTTP request costs, the producer→consumer streaming
// period, registry mediation sweeps (whose latency causes the "warm-up"
// data loss of §III.F), JVM heap pressure that inflates service times as
// the heap fills (the growth in fig. 11), and per-producer heap costs
// that out-of-memory a single server near 800 connections.
//
// # Concurrency
//
// The package has two halves with different thread-safety contracts.
//
// Concurrency-safe (callable from any goroutine): TupleStore, whose
// retention sweeps, inserts, queries and stats are guarded internally
// (stats are atomic counters).
//
// Serial-only: Registry, Deployment and everything reached through it
// (ProducerService, ConsumerService, PrimaryProducer, Consumer,
// Subscriber, SecondaryProducer). These run inside the deterministic
// simulation kernel, whose event loop is the only caller; they take no
// locks of their own. The live daemons' service core, internal/rgmacore,
// composes the concurrency-safe half only.
package rgma

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// Tuple is a stored row with its timing metadata.
type Tuple struct {
	Row sqlmini.Row
	// SentAt is the generator-side creation instant (before_sending).
	SentAt sim.Time
	// InsertedAt is when the producer service stored the row.
	InsertedAt sim.Time
}

// TupleStore is a Primary/Secondary Producer's memory storage: history
// rows retained for the history retention period and a latest row per
// primary key retained for the latest retention period, as configured by
// the paper's tests (30 s latest, 1 min history).
//
// A TupleStore is concurrency-safe: Insert, Purge, the query methods and
// Stats may be called from any goroutine (a mutex guards the row state;
// counters are atomic). With a single caller the lock is uncontended
// and behaviour is identical to the pre-concurrency store, except that
// Latest now returns rows in deterministic primary-key order rather
// than map order.
type TupleStore struct {
	table            *sqlmini.Table
	latestRetention  sim.Time
	historyRetention sim.Time

	mu      sync.Mutex
	history []Tuple
	latest  map[string]Tuple

	inserts atomic.Uint64
	purged  atomic.Uint64
}

// NewTupleStore creates memory storage for one table.
func NewTupleStore(table *sqlmini.Table, latestRetention, historyRetention sim.Time) *TupleStore {
	if latestRetention <= 0 || historyRetention <= 0 {
		panic("rgma: non-positive retention period")
	}
	return &TupleStore{
		table:            table,
		latestRetention:  latestRetention,
		historyRetention: historyRetention,
		latest:           make(map[string]Tuple),
	}
}

// Table returns the store's schema.
func (s *TupleStore) Table() *sqlmini.Table { return s.table }

// keyOf renders the primary-key value(s) of a row. Tables without a
// primary key treat the whole row as identity.
func (s *TupleStore) keyOf(row sqlmini.Row) string {
	pk := s.table.PrimaryKey()
	if len(pk) == 0 {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		return strings.Join(parts, "|")
	}
	parts := make([]string, len(pk))
	for i, idx := range pk {
		if idx < len(row) {
			parts[i] = row[idx].String()
		}
	}
	return strings.Join(parts, "|")
}

// Insert stores a tuple, updating the latest view.
func (s *TupleStore) Insert(t Tuple) {
	key := s.keyOf(t.Row)
	s.mu.Lock()
	s.history = append(s.history, t)
	s.latest[key] = t
	s.mu.Unlock()
	s.inserts.Add(1)
}

// Purge drops rows past their retention periods. Safe from any
// goroutine — retention sweeps may run concurrently with inserts and
// queries.
func (s *TupleStore) Purge(now sim.Time) {
	s.mu.Lock()
	s.purgeLocked(now)
	s.mu.Unlock()
}

func (s *TupleStore) purgeLocked(now sim.Time) {
	cut := 0
	for cut < len(s.history) && now-s.history[cut].InsertedAt > s.historyRetention {
		cut++
	}
	if cut > 0 {
		// Reslice rather than copy the survivors: the insert path sweeps
		// every insertsPerSweep inserts, and a copy would cost the whole
		// retained history each time. The expired slots are cleared so
		// their rows can be collected; append's next growth drops them.
		clear(s.history[:cut])
		s.history = s.history[cut:]
		s.purged.Add(uint64(cut))
	}
	for k, t := range s.latest {
		if now-t.InsertedAt > s.latestRetention {
			delete(s.latest, k)
		}
	}
}

// HistoryCompiled returns retained history tuples accepted by a
// compiled predicate program (nil matches every row). The program must
// have been compiled against this store's schema.
func (s *TupleStore) HistoryCompiled(now sim.Time, p *sqlmini.Program) []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked(now)
	var out []Tuple
	for _, t := range s.history {
		if p.Matches(t.Row) {
			out = append(out, t)
		}
	}
	return out
}

// LatestCompiled returns the retained latest tuples accepted by a
// compiled predicate program (nil matches every row), in primary-key
// order. The program must have been compiled against this store's
// schema.
func (s *TupleStore) LatestCompiled(now sim.Time, p *sqlmini.Program) []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked(now)
	keys := make([]string, 0, len(s.latest))
	for k := range s.latest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Tuple
	for _, k := range keys {
		if t := s.latest[k]; p.Matches(t.Row) {
			out = append(out, t)
		}
	}
	return out
}

// Dump snapshots the store's retained tuples in replay order: latest-view
// tuples whose history copy has already been purged (oldest first, key
// order on ties), then the history in insert order. Re-inserting the
// returned tuples in order — preserving their InsertedAt stamps — rebuilds
// both views: the pre-history tuples seed latest entries that outlived
// their history copies, and each history insert overwrites latest for its
// key exactly as the original did. Tuples past a retention period at
// replay time are shed by the first post-replay purge, so a replayed
// store answers every query identically. The returned Tuples share Row
// slices with the store; callers must not mutate them.
func (s *TupleStore) Dump() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	covered := make(map[string]bool, len(s.history))
	for _, t := range s.history {
		covered[s.keyOf(t.Row)] = true
	}
	type keyed struct {
		key string
		t   Tuple
	}
	var pre []keyed
	for k, t := range s.latest {
		if !covered[k] {
			pre = append(pre, keyed{k, t})
		}
	}
	sort.Slice(pre, func(i, j int) bool {
		if pre[i].t.InsertedAt != pre[j].t.InsertedAt {
			return pre[i].t.InsertedAt < pre[j].t.InsertedAt
		}
		return pre[i].key < pre[j].key
	})
	out := make([]Tuple, 0, len(pre)+len(s.history))
	for _, kt := range pre {
		out = append(out, kt.t)
	}
	return append(out, s.history...)
}

// Len reports retained history size (after no purge; tests use it).
func (s *TupleStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history)
}

// StoreStats is a TupleStore's counters, readable from any goroutine.
type StoreStats struct {
	Inserts uint64 // tuples ever inserted
	Purged  uint64 // history rows dropped by retention sweeps
	History int    // currently retained history rows
	Latest  int    // currently retained latest rows
}

// Stats snapshots the store's counters. Safe from any goroutine.
func (s *TupleStore) Stats() StoreStats {
	s.mu.Lock()
	h, l := len(s.history), len(s.latest)
	s.mu.Unlock()
	return StoreStats{
		Inserts: s.inserts.Load(),
		Purged:  s.purged.Load(),
		History: h,
		Latest:  l,
	}
}

// MonitoringTable returns the paper's R-GMA workload schema: "four
// integer, eight double and four char (length 20) values".
func MonitoringTable() *sqlmini.Table {
	return &sqlmini.Table{
		Name: "generator",
		Columns: []sqlmini.Column{
			{Name: "genid", Type: sqlmini.TInteger, Primary: true},
			{Name: "seq", Type: sqlmini.TInteger},
			{Name: "status_code", Type: sqlmini.TInteger},
			{Name: "alarms", Type: sqlmini.TInteger},
			{Name: "power", Type: sqlmini.TDouble},
			{Name: "voltage", Type: sqlmini.TDouble},
			{Name: "current", Type: sqlmini.TDouble},
			{Name: "frequency", Type: sqlmini.TDouble},
			{Name: "phase", Type: sqlmini.TDouble},
			{Name: "temp", Type: sqlmini.TDouble},
			{Name: "pressure", Type: sqlmini.TDouble},
			{Name: "efficiency", Type: sqlmini.TDouble},
			{Name: "site", Type: sqlmini.TChar, Len: 20},
			{Name: "model", Type: sqlmini.TChar, Len: 20},
			{Name: "status", Type: sqlmini.TChar, Len: 20},
			{Name: "operator", Type: sqlmini.TChar, Len: 20},
		},
	}
}

// MonitoringRow builds one sample row for the paper's schema.
func MonitoringRow(genID int, seq int64) sqlmini.Row {
	return sqlmini.Row{
		sqlmini.IntV(int64(genID)),
		sqlmini.IntV(seq),
		sqlmini.IntV(0),
		sqlmini.IntV(0),
		sqlmini.FloatV(480.5),
		sqlmini.FloatV(239.9),
		sqlmini.FloatV(13.2),
		sqlmini.FloatV(50.01),
		sqlmini.FloatV(0.42),
		sqlmini.FloatV(341.25),
		sqlmini.FloatV(101.325),
		sqlmini.FloatV(0.9312),
		sqlmini.StringV(fmt.Sprintf("site-%04d", genID%500)),
		sqlmini.StringV("wind-v90"),
		sqlmini.StringV("RUNNING"),
		sqlmini.StringV("grid-ops"),
	}
}
