// Package rgma reproduces the Relational Grid Monitoring Architecture
// (R-GMA, gLite 3.0) as evaluated by the paper: a virtual database in
// which Primary Producers publish tuples via SQL INSERT into memory
// storage with latest/history retention, Secondary Producers re-publish
// with their deliberate ~30 s delay, Consumers run continuous, latest or
// history SELECT queries mediated through a Registry, and subscribers
// poll their consumer every 100 ms.
//
// A producer's memory storage, TupleStore, keeps its history as encoded
// records in pointer-free byte chunks rather than one heap row per
// tuple, so what a retained tuple costs is its encoded size; queries
// and Dump decode the records they return.
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
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

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

// History chunk sizes. A store's first chunk is small, so the paper's
// producers, each holding a few tuples, pin little; each later chunk is
// sized to the history retained when it is cut, doubling up to the cap,
// so a long history is a few large pointer-free chunks.
const (
	firstChunk = 256
	maxChunk   = 64 << 10
)

// TupleStore is a Primary/Secondary Producer's memory storage: history
// rows retained for the history retention period and a latest row per
// primary key retained for the latest retention period, as configured by
// the paper's tests (30 s latest, 1 min history).
//
// The history is kept as encoded records (see appendRecord), one after
// another in pointer-free byte chunks, not as one heap row per tuple:
// the garbage collector sees a few chunks instead of every retained
// row. Queries decode records; the latest view keeps the inserted rows,
// one per key.
//
// A TupleStore is concurrency-safe: Insert, Purge, the query methods and
// Stats may be called from any goroutine (a mutex guards the row state;
// counters are atomic). With a single caller the lock is uncontended
// and behaviour is identical to the pre-concurrency store, except that
// Latest now returns rows in deterministic primary-key order rather
// than map order.
type TupleStore struct {
	table            *sqlmini.Table
	key              []int // the columns keyOf renders
	latestRetention  sim.Time
	historyRetention sim.Time

	mu sync.Mutex
	// chunks hold the retained history records, oldest first; the
	// oldest starts at chunks[0][head:]. A chunk the head has passed is
	// dropped, so the store holds no chunk exactly when n is 0.
	chunks  [][]byte
	head    int
	n       int         // retained history records
	bytes   int         // their encoded size
	scratch sqlmini.Row // the row purges and queries decode into
	latest  map[string]Tuple

	inserts atomic.Uint64
	purged  atomic.Uint64
}

// NewTupleStore creates memory storage for one table.
func NewTupleStore(table *sqlmini.Table, latestRetention, historyRetention sim.Time) *TupleStore {
	if latestRetention <= 0 || historyRetention <= 0 {
		panic("rgma: non-positive retention period")
	}
	key := table.PrimaryKey()
	if len(key) == 0 {
		// Tables without a primary key treat the whole row as identity.
		for i := range table.Columns {
			key = append(key, i)
		}
	}
	return &TupleStore{
		table:            table,
		key:              key,
		latestRetention:  latestRetention,
		historyRetention: historyRetention,
		scratch:          make(sqlmini.Row, len(table.Columns)),
		latest:           make(map[string]Tuple),
	}
}

// Table returns the store's schema.
func (s *TupleStore) Table() *sqlmini.Table { return s.table }

// keyOf renders the primary-key value(s) of a row.
func (s *TupleStore) keyOf(row sqlmini.Row) string {
	if len(s.key) == 1 {
		return row[s.key[0]].String()
	}
	parts := make([]string, len(s.key))
	for i, idx := range s.key {
		parts[i] = row[idx].String()
	}
	return strings.Join(parts, "|")
}

// Insert stores a tuple, updating the latest view. The row must have
// one cell per column of the store's table.
func (s *TupleStore) Insert(t Tuple) {
	if len(t.Row) != len(s.table.Columns) {
		panic(fmt.Sprintf("rgma: %d-cell row inserted into %d-column table %s", len(t.Row), len(s.table.Columns), s.table.Name))
	}
	key := s.keyOf(t.Row)
	size := recordSize(t.Row)
	s.mu.Lock()
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < size {
		s.chunks = append(s.chunks, make([]byte, 0, s.chunkSize(size)))
		last++
	}
	s.chunks[last] = appendRecord(s.chunks[last], t)
	s.n++
	s.bytes += size
	s.latest[key] = t
	s.mu.Unlock()
	s.inserts.Add(1)
}

// chunkSize sizes a new chunk for a record of size bytes: the smallest
// doubling of firstChunk that holds the whole retained history and the
// record, up to maxChunk, and never smaller than the record.
func (s *TupleStore) chunkSize(size int) int {
	c := firstChunk
	for c < s.bytes+size && c < maxChunk {
		c *= 2
	}
	return max(c, size)
}

// Purge drops rows past their retention periods. Safe from any
// goroutine — retention sweeps may run concurrently with inserts and
// queries.
func (s *TupleStore) Purge(now sim.Time) {
	s.mu.Lock()
	s.purgeLocked(now)
	s.mu.Unlock()
}

// purgeLocked drops history records from the oldest while they are
// expired, stopping at the first live one even if a later record is
// older, and latest rows past the latest retention.
func (s *TupleStore) purgeLocked(now sim.Time) {
	cut := 0
	for s.n > 0 {
		c := s.chunks[0]
		t, size := s.decodeLocked(c[s.head:])
		if now-t.InsertedAt <= s.historyRetention {
			break
		}
		s.head += size
		s.n--
		s.bytes -= size
		cut++
		if s.head == len(c) {
			// Reslice rather than copy the chunk list; the dropped slot
			// is cleared so its chunk can be collected.
			s.chunks[0] = nil
			s.chunks = s.chunks[1:]
			s.head = 0
		}
	}
	clear(s.scratch)
	if cut > 0 {
		s.purged.Add(uint64(cut))
	}
	for k, t := range s.latest {
		if now-t.InsertedAt > s.latestRetention {
			delete(s.latest, k)
		}
	}
}

// decodeLocked decodes the record at the start of b into the scratch
// row and returns it with the record's size.
func (s *TupleStore) decodeLocked(b []byte) (Tuple, int) {
	t, size, err := decodeRecord(b, s.scratch)
	if err != nil {
		panic(err) // the store wrote every record it reads
	}
	return t, size
}

// historyLocked yields the retained history, oldest first. Each Tuple's
// Row is the scratch row, overwritten by the next record, and its
// strings are views of a chunk: a caller that keeps one clones it
// (cloneRow).
func (s *TupleStore) historyLocked() iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		defer clear(s.scratch)
		off := s.head
		for _, c := range s.chunks {
			for off < len(c) {
				t, size := s.decodeLocked(c[off:])
				if !yield(t) {
					return
				}
				off += size
			}
			off = 0
		}
	}
}

// cloneRow copies a decoded row out of the chunk its strings view.
func cloneRow(row sqlmini.Row) sqlmini.Row {
	out := slices.Clone(row)
	for i := range out {
		if out[i].Kind == sqlmini.VString {
			out[i].Str = strings.Clone(out[i].Str)
		}
	}
	return out
}

// HistoryCompiled returns retained history tuples accepted by a
// compiled predicate program (nil matches every row). The program must
// have been compiled against this store's schema. Each returned Row is
// a fresh copy.
func (s *TupleStore) HistoryCompiled(now sim.Time, p *sqlmini.Program) []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeLocked(now)
	var out []Tuple
	for t := range s.historyLocked() {
		if p.Matches(t.Row) {
			t.Row = cloneRow(t.Row)
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
// store answers every query identically. The history tuples are decoded
// copies; the latest-view tuples share Row slices with the store, and
// callers must not mutate them.
func (s *TupleStore) Dump() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	history := make([]Tuple, 0, s.n)
	covered := make(map[string]bool, s.n)
	for t := range s.historyLocked() {
		t.Row = cloneRow(t.Row)
		covered[s.keyOf(t.Row)] = true
		history = append(history, t)
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
	out := make([]Tuple, 0, len(pre)+len(history))
	for _, kt := range pre {
		out = append(out, kt.t)
	}
	return append(out, history...)
}

// Len reports retained history size (after no purge; tests use it).
func (s *TupleStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
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
	h, l := s.n, len(s.latest)
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

// A history record is one tuple, encoded:
//
//	InsertedAt  8 bytes, little-endian
//	SentAt      8 bytes, little-endian
//	each cell   its sqlmini.ValueKind byte, then
//	              VInt:    the int64, 8 bytes little-endian
//	              VFloat:  the IEEE 754 bits, 8 bytes little-endian
//	              VString: a uvarint length, then the bytes
//	              VNull:   nothing
//
// The kind is stored per cell because CheckRow admits an integer into a
// DOUBLE column, and a float keeps its exact bits (−0, NaN payloads).
// The cell count is the table's column count, so a record carries none.

// recordSize is the encoded size of a record holding row.
func recordSize(row sqlmini.Row) int {
	var varint [binary.MaxVarintLen64]byte
	n := 16 + len(row)
	for _, v := range row {
		switch v.Kind {
		case sqlmini.VInt, sqlmini.VFloat:
			n += 8
		case sqlmini.VString:
			n += binary.PutUvarint(varint[:], uint64(len(v.Str))) + len(v.Str)
		}
	}
	return n
}

// appendRecord appends t's record to b.
func appendRecord(b []byte, t Tuple) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(t.InsertedAt))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.SentAt))
	for _, v := range t.Row {
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case sqlmini.VNull:
		case sqlmini.VInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.Int))
		case sqlmini.VFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		case sqlmini.VString:
			b = binary.AppendUvarint(b, uint64(len(v.Str)))
			b = append(b, v.Str...)
		default:
			panic(fmt.Sprintf("rgma: cell of unknown kind %d", v.Kind))
		}
	}
	return b
}

var errBadRecord = errors.New("rgma: truncated or malformed tuple record")

// decodeRecord decodes the record at the start of b into row, which has
// one cell per column, and returns the tuple and the record's size. The
// string cells are views of b, valid while b is unchanged. A b that does
// not start with a whole record is an error.
func decodeRecord(b []byte, row sqlmini.Row) (Tuple, int, error) {
	if len(b) < 16 {
		return Tuple{}, 0, errBadRecord
	}
	t := Tuple{
		Row:        row,
		InsertedAt: sim.Time(binary.LittleEndian.Uint64(b)),
		SentAt:     sim.Time(binary.LittleEndian.Uint64(b[8:])),
	}
	off := 16
	for i := range row {
		if off >= len(b) {
			return Tuple{}, 0, errBadRecord
		}
		kind := sqlmini.ValueKind(b[off])
		off++
		switch kind {
		case sqlmini.VNull:
			row[i] = sqlmini.Null()
		case sqlmini.VInt, sqlmini.VFloat:
			if len(b)-off < 8 {
				return Tuple{}, 0, errBadRecord
			}
			bits := binary.LittleEndian.Uint64(b[off:])
			off += 8
			if kind == sqlmini.VInt {
				row[i] = sqlmini.IntV(int64(bits))
			} else {
				row[i] = sqlmini.FloatV(math.Float64frombits(bits))
			}
		case sqlmini.VString:
			n, w := binary.Uvarint(b[off:])
			if w <= 0 || n > uint64(len(b)-off-w) {
				return Tuple{}, 0, errBadRecord
			}
			off += w
			str := b[off : off+int(n)]
			off += int(n)
			row[i] = sqlmini.StringV("")
			if len(str) > 0 {
				row[i].Str = unsafe.String(&str[0], len(str))
			}
		default:
			return Tuple{}, 0, errBadRecord
		}
	}
	return t, off, nil
}
