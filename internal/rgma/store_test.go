package rgma

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// modelStore is the naive reference TupleStore is checked against: the
// history in one slice of tuples and the newest tuple per key in a map,
// under the retention rule the store documents. It shares no code with
// the store.
type modelStore struct {
	table              *sqlmini.Table
	latestRet, histRet sim.Time
	history            []Tuple
	latest             map[string]Tuple
	inserts, purged    uint64
}

func newModelStore(tab *sqlmini.Table, latestRet, histRet sim.Time) *modelStore {
	return &modelStore{table: tab, latestRet: latestRet, histRet: histRet, latest: make(map[string]Tuple)}
}

// key renders the row's primary key cells, or every cell when the table
// has none, joined by "|".
func (m *modelStore) key(row sqlmini.Row) string {
	var parts []string
	for i, c := range m.table.Columns {
		if c.Primary {
			parts = append(parts, row[i].String())
		}
	}
	if parts == nil {
		for _, v := range row {
			parts = append(parts, v.String())
		}
	}
	return strings.Join(parts, "|")
}

func (m *modelStore) insert(t Tuple) {
	m.history = append(m.history, t)
	m.latest[m.key(t.Row)] = t
	m.inserts++
}

// purge drops history from its oldest tuple up to the first live one,
// and each expired latest row.
func (m *modelStore) purge(now sim.Time) {
	for len(m.history) > 0 && now-m.history[0].InsertedAt > m.histRet {
		m.history = m.history[1:]
		m.purged++
	}
	maps.DeleteFunc(m.latest, func(_ string, t Tuple) bool { return now-t.InsertedAt > m.latestRet })
}

func (m *modelStore) historyQ(now sim.Time, p *sqlmini.Program) []Tuple {
	m.purge(now)
	var out []Tuple
	for _, t := range m.history {
		if p.Matches(t.Row) {
			out = append(out, t)
		}
	}
	return out
}

func (m *modelStore) latestQ(now sim.Time, p *sqlmini.Program) []Tuple {
	m.purge(now)
	var out []Tuple
	for _, k := range slices.Sorted(maps.Keys(m.latest)) {
		if t := m.latest[k]; p.Matches(t.Row) {
			out = append(out, t)
		}
	}
	return out
}

// dump is Dump's documented order: the latest tuples no history tuple
// shares a key with, oldest first and by key on ties, then the history.
func (m *modelStore) dump() []Tuple {
	inHistory := make(map[string]bool)
	for _, t := range m.history {
		inHistory[m.key(t.Row)] = true
	}
	var keys []string
	for k := range m.latest {
		if !inHistory[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := m.latest[keys[i]].InsertedAt, m.latest[keys[j]].InsertedAt
		return a < b || a == b && keys[i] < keys[j]
	})
	var out []Tuple
	for _, k := range keys {
		out = append(out, m.latest[k])
	}
	return append(out, m.history...)
}

// sameTuples reports the first difference between two tuple lists,
// comparing cells bit for bit (a NaN equals the NaN with its bits; −0
// differs from 0), or "" when they are the same.
func sameTuples(got, want []Tuple) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if d := sameTuple(got[i], want[i]); d != "" {
			return fmt.Sprintf("tuple %d: %s", i, d)
		}
	}
	return ""
}

func sameTuple(got, want Tuple) string {
	if got.SentAt != want.SentAt || got.InsertedAt != want.InsertedAt {
		return fmt.Sprintf("stamps %d/%d, want %d/%d", got.SentAt, got.InsertedAt, want.SentAt, want.InsertedAt)
	}
	if len(got.Row) != len(want.Row) {
		return fmt.Sprintf("%d cells, want %d", len(got.Row), len(want.Row))
	}
	for i, g := range got.Row {
		w := want.Row[i]
		if g.Kind != w.Kind || g.Int != w.Int || math.Float64bits(g.F) != math.Float64bits(w.F) || g.Str != w.Str {
			return fmt.Sprintf("cell %d is %#v, want %#v", i, g, w)
		}
	}
	return ""
}

// Edge-case cell values for the equivalence test and the fuzz corpus.
var (
	edgeInts   = []int64{0, 1, -1, 127, 128, math.MaxInt64, math.MinInt64}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
		math.SmallestNonzeroFloat64, math.MaxFloat64, 480.5, -0.1,
	}
	edgeStrings = []string{
		"", "it's", "''", "nul\x00byte", "\xff\xfe\xfd", "ünïcödé",
		strings.Repeat("c", 20), // a full CHAR(20)
	}
	// edgeLongStrings fit only the VARCHAR column: a two-byte length, and
	// a record larger than the first chunk.
	edgeLongStrings = []string{strings.Repeat("v", 200), strings.Repeat("w", 300)}
)

// edgeTable has a column of every type; VARCHAR(400) holds the long
// strings.
func edgeTable(key ...string) *sqlmini.Table {
	tab := &sqlmini.Table{Name: "edge", Columns: []sqlmini.Column{
		{Name: "id", Type: sqlmini.TInteger},
		{Name: "n", Type: sqlmini.TInteger},
		{Name: "d", Type: sqlmini.TDouble},
		{Name: "r", Type: sqlmini.TReal},
		{Name: "c", Type: sqlmini.TChar, Len: 20},
		{Name: "v", Type: sqlmini.TVarchar, Len: 400},
	}}
	for _, k := range key {
		tab.Columns[tab.ColIndex(k)].Primary = true
	}
	return tab
}

// edgeRow draws a row for tab: each cell NULL one time in six, else an
// edge value of its column's type or a small one, an integer one time
// in four in a REAL or DOUBLE column.
func edgeRow(rng *rand.Rand, tab *sqlmini.Table) sqlmini.Row {
	row := make(sqlmini.Row, len(tab.Columns))
	for i, c := range tab.Columns {
		if rng.Intn(6) == 0 {
			continue
		}
		switch c.Type {
		case sqlmini.TInteger:
			if c.Primary || rng.Intn(2) == 0 {
				row[i] = sqlmini.IntV(int64(rng.Intn(6)))
			} else {
				row[i] = sqlmini.IntV(edgeInts[rng.Intn(len(edgeInts))])
			}
		case sqlmini.TReal, sqlmini.TDouble:
			if rng.Intn(4) == 0 {
				row[i] = sqlmini.IntV(edgeInts[rng.Intn(len(edgeInts))])
			} else {
				row[i] = sqlmini.FloatV(edgeFloats[rng.Intn(len(edgeFloats))])
			}
		case sqlmini.TChar:
			row[i] = sqlmini.StringV(edgeStrings[rng.Intn(len(edgeStrings))])
		default:
			strs := edgeStrings
			if rng.Intn(3) == 0 {
				strs = edgeLongStrings
			}
			row[i] = sqlmini.StringV(strs[rng.Intn(len(strs))])
		}
	}
	if err := sqlmini.CheckRow(tab, row); err != nil {
		panic(err)
	}
	return row
}

// chunkBytes is the chunk capacity a store holds.
func chunkBytes(s *TupleStore) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.chunks {
		n += cap(c)
	}
	return n
}

// TestTupleStoreMatchesModel drives TupleStore and the naive model
// through the same random interleaving of inserts, purges, queries,
// dumps and stats, and requires the same answers bit for bit. Inserted
// stamps run out of order; bursts fill several chunks, and long idle
// steps empty the store, so chunks are cut and dropped both ways.
func TestTupleStoreMatchesModel(t *testing.T) {
	const latestRet, histRet = 40, 100
	for _, key := range [][]string{{"id"}, {"id", "c"}, nil} {
		tab := edgeTable(key...)
		var progs []*sqlmini.Program
		for _, where := range []string{"", "WHERE d > 0", "WHERE c = 'it''s'", "WHERE n IS NULL OR r < 0", "WHERE v IS NOT NULL AND id < 3"} {
			sel, err := ParseQuery("SELECT * FROM edge " + where)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, sel.Compiled(tab))
		}
		progs = append(progs, nil)
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewTupleStore(tab, latestRet, histRet)
			m := newModelStore(tab, latestRet, histRet)
			var now sim.Time
			maxChunks, refills := 0, 0
			insert := func() {
				at := now - sim.Time(rng.Intn(8)) // out of order by up to 7
				tu := Tuple{Row: edgeRow(rng, tab), SentAt: at - sim.Time(rng.Intn(3)), InsertedAt: at}
				s.Insert(tu)
				m.insert(tu)
			}
			for op := 0; op < 2500; op++ {
				where := fmt.Sprintf("key=%v seed=%d op=%d now=%d", key, seed, op, now)
				wasEmpty := s.Len() == 0
				switch r := rng.Intn(100); {
				case r < 45:
					insert()
				case r < 50:
					for range 40 {
						insert()
					}
				case r < 58:
					s.Purge(now)
					m.purge(now)
				case r < 70:
					p := progs[rng.Intn(len(progs))]
					if d := sameTuples(s.HistoryCompiled(now, p), m.historyQ(now, p)); d != "" {
						t.Fatalf("%s: HistoryCompiled: %s", where, d)
					}
				case r < 82:
					p := progs[rng.Intn(len(progs))]
					if d := sameTuples(s.LatestCompiled(now, p), m.latestQ(now, p)); d != "" {
						t.Fatalf("%s: LatestCompiled: %s", where, d)
					}
				case r < 88:
					dump := s.Dump()
					if d := sameTuples(dump, m.dump()); d != "" {
						t.Fatalf("%s: Dump: %s", where, d)
					}
					// Replaying the dump rebuilds a store that dumps the same.
					replay := NewTupleStore(tab, latestRet, histRet)
					for _, tu := range dump {
						replay.Insert(tu)
					}
					if d := sameTuples(replay.Dump(), dump); d != "" {
						t.Fatalf("%s: replayed Dump: %s", where, d)
					}
				default:
					got := s.Stats()
					want := StoreStats{Inserts: m.inserts, Purged: m.purged, History: len(m.history), Latest: len(m.latest)}
					if got != want {
						t.Fatalf("%s: Stats %+v, want %+v", where, got, want)
					}
				}
				if rng.Intn(60) == 0 {
					now += 3 * histRet // everything expires at the next purge
				} else {
					now += sim.Time(rng.Intn(4))
				}
				s.mu.Lock()
				if (s.n == 0) != (len(s.chunks) == 0) {
					t.Fatalf("%s: %d records in %d chunks", where, s.n, len(s.chunks))
				}
				maxChunks = max(maxChunks, len(s.chunks))
				if wasEmpty && s.n > 0 {
					refills++
				}
				s.mu.Unlock()
			}
			if maxChunks < 3 || refills < 3 {
				t.Fatalf("key=%v seed=%d: at most %d chunks, %d refills of an empty store: chunk boundaries not exercised", key, seed, maxChunks, refills)
			}
		}
	}
}

// streamTable is the rgma_stream workload's table.
func streamTable() *sqlmini.Table {
	return &sqlmini.Table{Name: "generator", Columns: []sqlmini.Column{
		{Name: "genid", Type: sqlmini.TInteger, Primary: true},
		{Name: "seq", Type: sqlmini.TInteger},
		{Name: "power", Type: sqlmini.TDouble},
		{Name: "site", Type: sqlmini.TChar, Len: 20},
	}}
}

func streamRow(i int) sqlmini.Row {
	genid := i % 1000
	return sqlmini.Row{
		sqlmini.IntV(int64(genid)),
		sqlmini.IntV(int64(i)),
		sqlmini.FloatV(float64(i%4000)/10 + 0.5),
		sqlmini.StringV(fmt.Sprintf("site-%04d", genid%500)),
	}
}

// A one-column key is that cell's rendering: keyOf allocates nothing
// more than Value.String does (nothing, for a small integer).
func TestKeyOfAllocs(t *testing.T) {
	s := NewTupleStore(streamTable(), sim.Minute, sim.Minute)
	row := streamRow(7)
	if got := s.keyOf(row); got != "7" {
		t.Fatalf("keyOf = %q, want %q", got, "7")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.keyOf(row) }); allocs != 0 {
		t.Fatalf("keyOf allocated %v times, want 0", allocs)
	}
}

// TestTupleStoreMemory pins what retained history costs: the live heap
// a store of 100 000 rgma_stream tuples (1 000 keys) holds, per tuple,
// and the chunk bytes of an empty store and of the paper's producer,
// which publishes once per 10 s and keeps 60 s of history (6 tuples).
func TestTupleStoreMemory(t *testing.T) {
	tab := streamTable()
	if s := NewTupleStore(tab, sim.Minute, sim.Minute); chunkBytes(s) != 0 {
		t.Fatalf("empty store holds %d chunk bytes, want 0", chunkBytes(s))
	}
	small := NewTupleStore(tab, 30*sim.Second, sim.Minute)
	for i := range 6 {
		small.Insert(Tuple{Row: streamRow(i), InsertedAt: sim.Time(i) * 10 * sim.Second})
	}
	if got := chunkBytes(small); got >= 1024 {
		t.Fatalf("a store of 6 tuples holds %d chunk bytes, want < 1 KiB", got)
	}

	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewTupleStore(tab, 10*sim.Minute, 10*sim.Minute)
	for i := range n {
		at := sim.Time(i) * sim.Millisecond
		s.Insert(Tuple{Row: streamRow(i), SentAt: at, InsertedAt: at})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Len() != n {
		t.Fatalf("retained %d tuples, want %d", s.Len(), n)
	}
	perTuple := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of heap per retained tuple, %d chunk bytes", perTuple, chunkBytes(s))
	if perTuple > 80 {
		t.Fatalf("%.1f B of heap per retained tuple, want <= 80", perTuple)
	}
}
