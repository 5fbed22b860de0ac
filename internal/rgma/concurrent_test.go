package rgma

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"gridmon/internal/selector"
	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// --- mediation index correctness ---

// refRegistry is the seed's registry: one flat map, mediation by full
// linear scan. The indexed registry must mediate to exactly the same
// producer sets through every register/unregister sequence.
type refRegistry struct {
	nextID    int64
	producers map[int64]ProducerEntry
}

func (r *refRegistry) register(e ProducerEntry) int64 {
	r.nextID++
	e.ID = r.nextID
	r.producers[e.ID] = e
	return e.ID
}

func (r *refRegistry) producersFor(table string, kind ProducerKind) []ProducerEntry {
	var out []ProducerEntry
	for _, e := range r.producers {
		if equalFold(e.Table, table) && (kind == 0 || e.Kind == kind) {
			out = append(out, e)
		}
	}
	return out
}

func equalFold(a, b string) bool { return tableKey(a) == tableKey(b) }

// TestMediationMatchesLinearScan pins that the by-table index returns
// the same mediation results as the full-registry scan it replaced,
// over randomized register/unregister sequences and kinds.
func TestMediationMatchesLinearScan(t *testing.T) {
	tables := []string{"generator", "Generator", "turbine", "grid_load", "SUBSTATION", "x"}
	for _, seed := range []int64{1001, 1002, 1008, 1016} {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		ref := &refRegistry{producers: make(map[int64]ProducerEntry)}
		var live []int64
		for op := 0; op < 2000; op++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				r.UnregisterProducer(id)
				delete(ref.producers, id)
				continue
			}
			e := ProducerEntry{
				Kind:    ProducerKind(1 + rng.Intn(2)),
				Table:   tables[rng.Intn(len(tables))],
				Service: rng.Intn(4),
			}
			id := r.RegisterProducer(e)
			refID := ref.register(e)
			if id != refID {
				t.Fatalf("seed=%d: ID %d, reference ID %d — ID sequence diverged", seed, id, refID)
			}
			live = append(live, id)
		}
		for _, table := range tables {
			for _, kind := range []ProducerKind{0, PrimaryKind, SecondaryKind} {
				got := r.ProducersFor(table, kind)
				want := ref.producersFor(table, kind)
				sortEntries(got)
				sortEntries(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed=%d ProducersFor(%q, %v):\n got %v\nwant %v", seed, table, kind, got, want)
				}
			}
		}
		gotP, _ := r.Counts()
		if gotP != len(ref.producers) {
			t.Fatalf("seed=%d: Counts %d, reference %d", seed, gotP, len(ref.producers))
		}
	}
}

func sortEntries(es []ProducerEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}

// TestMediationOrderDeterministic pins the index's registration-order
// contract (the old map scan returned a random permutation; the sim
// kernel breaks event ties by submission order, so mediation must not
// reintroduce map-range nondeterminism).
func TestMediationOrderDeterministic(t *testing.T) {
	r := NewRegistry()
	var want []int64
	for i := 0; i < 50; i++ {
		want = append(want, r.RegisterProducer(ProducerEntry{Kind: PrimaryKind, Table: "generator"}))
	}
	for trial := 0; trial < 5; trial++ {
		got := r.ProducersFor("GENERATOR", 0)
		if len(got) != len(want) {
			t.Fatalf("mediated %d of %d", len(got), len(want))
		}
		for i, e := range got {
			if e.ID != want[i] {
				t.Fatalf("trial %d: position %d has ID %d, want registration order %d", trial, i, e.ID, want[i])
			}
		}
	}
}

// --- -race stress ---

// TestTupleStoreConcurrentStress drives one store from parallel
// inserters, queriers and retention sweeps. Run under -race.
func TestTupleStoreConcurrentStress(t *testing.T) {
	tab := MonitoringTable()
	s := NewTupleStore(tab, 30*sim.Second, sim.Minute)
	star, _ := ParseQuery("SELECT * FROM generator")
	prog := star.Compiled(tab)
	filtered, _ := ParseQuery("SELECT * FROM generator WHERE genid < 4")
	fprog := filtered.Compiled(tab)
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				now := sim.Time(i) * sim.Millisecond
				switch w % 4 {
				case 0:
					s.Insert(Tuple{Row: MonitoringRow(w, int64(i)), InsertedAt: now})
				case 1:
					s.LatestCompiled(now, fprog)
				case 2:
					s.HistoryCompiled(now, prog)
				default:
					s.Purge(now)
					s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Inserts != 3*500 {
		t.Fatalf("inserts = %d, want %d", st.Inserts, 3*500)
	}
	if got := len(s.LatestCompiled(0, prog)); got > 3 {
		t.Fatalf("latest rows = %d, want <= 3 distinct genids", got)
	}
}

// TestLatestDeterministicOrder pins the primary-key ordering of the
// latest view (the seed returned map order, which a concurrent binding
// cannot reproduce run-to-run).
func TestLatestDeterministicOrder(t *testing.T) {
	tab := MonitoringTable()
	s := NewTupleStore(tab, sim.Minute, sim.Minute)
	for _, id := range []int{9, 3, 7, 1, 5} {
		s.Insert(Tuple{Row: MonitoringRow(id, 1), InsertedAt: 0})
	}
	star, _ := ParseQuery("SELECT * FROM generator")
	var prev string
	for trial := 0; trial < 4; trial++ {
		out := s.LatestCompiled(0, star.Compiled(tab))
		var ids string
		for _, tu := range out {
			ids += tu.Row[0].String() + ","
		}
		if trial > 0 && ids != prev {
			t.Fatalf("latest order changed between calls: %q vs %q", ids, prev)
		}
		prev = ids
	}
	if prev != "1,3,5,7,9," {
		t.Fatalf("latest order = %q, want sorted primary keys", prev)
	}
}

// TestStoreCompiledMatchesInterpreted cross-checks the store's compiled
// query path against the predicate engine's reference evaluator, applied
// to the store's unfiltered answer, on the same store state.
func TestStoreCompiledMatchesInterpreted(t *testing.T) {
	tab := MonitoringTable()
	s := NewTupleStore(tab, sim.Minute, 2*sim.Minute)
	for i := 0; i < 20; i++ {
		s.Insert(Tuple{Row: MonitoringRow(i%7, int64(i)), InsertedAt: sim.Time(i) * sim.Second})
	}
	for _, q := range []string{
		"SELECT * FROM generator",
		"SELECT * FROM generator WHERE genid < 3",
		"SELECT * FROM generator WHERE genid = 2 OR seq > 15",
		"SELECT * FROM generator WHERE site = 'site-0003' AND genid IS NOT NULL",
	} {
		sel, err := ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		prog := sel.Compiled(tab)
		now := 30 * sim.Second
		if got, want := fmt.Sprint(s.HistoryCompiled(now, prog)), fmt.Sprint(oracleFilter(tab, sel, s.HistoryCompiled(now, nil))); got != want {
			t.Fatalf("%s: compiled history differs\n got %s\nwant %s", q, got, want)
		}
		if got, want := fmt.Sprint(s.LatestCompiled(now, prog)), fmt.Sprint(oracleFilter(tab, sel, s.LatestCompiled(now, nil))); got != want {
			t.Fatalf("%s: compiled latest differs\n got %s\nwant %s", q, got, want)
		}
	}
}

// oracleFilter keeps the tuples the predicate engine's reference
// evaluator accepts for the query.
func oracleFilter(tab *sqlmini.Table, sel sqlmini.Select, ts []Tuple) []Tuple {
	var out []Tuple
	for _, t := range ts {
		if sel.Where.EvalInterpreted(&sqlmini.RowSource{Table: tab, Row: t.Row}) == selector.TriTrue {
			out = append(out, t)
		}
	}
	return out
}
