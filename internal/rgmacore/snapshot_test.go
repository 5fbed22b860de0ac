package rgmacore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
)

// Tests for the lock-free (snapshot) read paths: Insert's continuous-
// consumer scan through the matching index and Pop's latest/history
// producer gather. Mirrors the obligations of internal/broker's
// snapshot_test.go: the core must pop exactly what the naive oracle
// (oracle_test.go) predicts for any single-caller operation sequence,
// and survive concurrent index churn under -race.

// forceCompaction makes every continuous-consumer close renumber its
// table's consumers and matching index, for the rest of the test.
func forceCompaction(t *testing.T) {
	prev := compactAt
	compactAt = func(int) int { return 1 }
	t.Cleanup(func() { compactAt = prev })
}

// distinctWhere draws from a family of per-consumer queries on table —
// `seq = k` and `seq >= k AND seq <= k+3` — so the table carries dozens
// of continuous consumers that come and go, and its matching index
// patches, merges and compacts.
func distinctWhere(rng *rand.Rand, table string) string {
	k := rng.Intn(100)
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("SELECT * FROM %s WHERE seq = %d", table, k)
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE seq >= %d AND seq <= %d", table, k, k+3)
}

// TestCoreOracleRandomized drives randomized operation sequences —
// table declares, producer and consumer create/close churn (all query
// types, and many distinct continuous consumers on one hot table),
// inserts, pops — through the core and the oracle from a single
// goroutine, comparing every pop result with the oracle's prediction as
// it happens and the live resource counts after every op. Any index
// mutation missing its refreshSnap, any consumer the matching index
// wrongly skips, and any consumer a patch or compaction misnumbers shows
// up as a pop divergence. Every seed runs at the production compaction
// threshold and again compacting on every close.
func TestCoreOracleRandomized(t *testing.T) {
	t.Run("production", coreOracleSeeds)
	t.Run("compact-every-close", func(t *testing.T) {
		forceCompaction(t)
		coreOracleSeeds(t)
	})
}

func coreOracleSeeds(t *testing.T) {
	tables := []string{"ta", "tb", "tc"}
	queries := []string{
		"SELECT * FROM %s",
		"SELECT * FROM %s WHERE seq < 50",
		"SELECT * FROM %s WHERE seq >= 50",
		"SELECT * FROM %s WHERE site = 'aberdeen'",
	}
	qtypes := []rgma.QueryType{rgma.ContinuousQuery, rgma.LatestQuery, rgma.HistoryQuery}

	for seed := int64(1); seed <= 5; seed++ {
		var now sim.Time
		c := New(Config{})
		c.clock = func() sim.Time { return now }
		orc := newOracleCore()
		for _, tab := range tables {
			ddl := fmt.Sprintf("CREATE TABLE %s (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))", tab)
			mustCreateTable(t, c, ddl)
			orc.createTable(ddl)
		}

		rng := rand.New(rand.NewSource(seed))
		var producers, consumers []int64
		createConsumer := func(op int, q string, qt rgma.QueryType) {
			cn, err := c.CreateConsumer(q, qt, nil)
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			consumers = append(consumers, cn.ID())
			orc.addConsumer(cn.ID(), q, qt)
		}
		for op := 0; op < 600; op++ {
			now += sim.Time(rng.Intn(50)) * sim.Millisecond
			switch r := rng.Intn(20); {
			case r < 3: // create a producer (sometimes default retention)
				tab := tables[rng.Intn(len(tables))]
				ret := sim.Time(rng.Intn(3)) * sim.Second
				p, err := c.CreateProducer(tab, ret, ret)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				producers = append(producers, p.ID())
				orc.addProducer(p.ID(), tab, ret, ret)
			case r < 5: // close a producer
				if len(producers) == 0 {
					continue
				}
				i := rng.Intn(len(producers))
				id := producers[i]
				producers = append(producers[:i], producers[i+1:]...)
				if err := c.CloseProducer(id); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				orc.closeProducer(id)
			case r < 7: // create a consumer (any query type)
				q := fmt.Sprintf(queries[rng.Intn(len(queries))], tables[rng.Intn(len(tables))])
				createConsumer(op, q, qtypes[rng.Intn(len(qtypes))])
			case r < 9: // create a distinct continuous consumer on the hot table
				createConsumer(op, distinctWhere(rng, tables[0]), rgma.ContinuousQuery)
			case r < 12: // close a consumer; half the time replace it on the hot table
				if len(consumers) == 0 {
					continue
				}
				i := rng.Intn(len(consumers))
				id := consumers[i]
				consumers = append(consumers[:i], consumers[i+1:]...)
				if err := c.CloseConsumer(id); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				orc.closeConsumer(id)
				if rng.Intn(2) == 0 {
					createConsumer(op, distinctWhere(rng, tables[0]), rgma.ContinuousQuery)
				}
			case r < 14: // pop a consumer, comparing the delivered tuples
				if len(consumers) == 0 {
					continue
				}
				id := consumers[rng.Intn(len(consumers))]
				got, err := c.Pop(id)
				if err != nil {
					t.Fatalf("seed %d op %d: pop of %d: %v", seed, op, id, err)
				}
				if want := orc.pop(id, now); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: pop of %d diverged\ncore:   %v\noracle: %v", seed, op, id, got, want)
				}
			default: // insert through a random live producer
				if len(producers) == 0 {
					continue
				}
				id := producers[rng.Intn(len(producers))]
				stmt := fmt.Sprintf(
					"INSERT INTO %s (genid, seq, site) VALUES (%d, %d, '%s')",
					tables[rng.Intn(len(tables))], rng.Intn(20), rng.Intn(100),
					[]string{"aberdeen", "dundee"}[rng.Intn(2)])
				if err := c.Insert(id, stmt); err != nil {
					t.Fatalf("seed %d op %d: insert: %v", seed, op, err)
				}
				orc.insert(id, stmt, now)
			}
			if p, cn := c.RegistryCounts(); p != len(producers) || cn != len(consumers) {
				t.Fatalf("seed %d op %d: RegistryCounts = %d/%d, want %d/%d", seed, op, p, cn, len(producers), len(consumers))
			}
		}
	}
}

// TestCoreSnapshotChurnEquivalence is the concurrent storm: goroutines
// churn producers and continuous consumers (create, pop, close, and
// distinct consumers replaced on a hot table) while inserters hammer the
// same tables, racing per-table snapshot and matching-index patches,
// merges and compactions against indexed inserts. Delivery during the
// storm is inherently racy, so phase 1 asserts safety only (no races
// under -race, clean teardown). Then the storm
// quiesces — every phase-1 resource closed — and a deterministic probe
// set over fresh producers must pop exactly what a fresh oracle
// predicts, proving the churned-up snapshots converged to the state of
// a core that never saw the storm. It runs at the production compaction
// threshold and again compacting on every close.
func TestCoreSnapshotChurnEquivalence(t *testing.T) {
	t.Run("production", coreChurnStorm)
	t.Run("compact-every-close", func(t *testing.T) {
		forceCompaction(t)
		coreChurnStorm(t)
	})
}

func coreChurnStorm(t *testing.T) {
	const (
		churners  = 4
		inserters = 4
		stormOps  = 200
		stormMsgs = 150
		probeMsgs = 100
	)
	tables := []string{"t0", "t1", "t2", "t3"}
	queries := []string{
		"SELECT * FROM %s",
		"SELECT * FROM %s WHERE seq < 50",
		"SELECT * FROM %s WHERE seq >= 50",
	}

	c := New(Config{})
	c.clock = func() sim.Time { return 0 }
	orc := newOracleCore()
	for _, tab := range tables {
		ddl := fmt.Sprintf("CREATE TABLE %s (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))", tab)
		mustCreateTable(t, c, ddl)
		orc.createTable(ddl)
	}

	// --- Phase 1: index churn under concurrent inserting.
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			var cns []int64
			for op := 0; op < stormOps; op++ {
				switch rng.Intn(8) {
				case 0, 1, 2: // create a continuous consumer (half on the hot table)
					q := fmt.Sprintf(queries[rng.Intn(len(queries))], tables[rng.Intn(len(tables))])
					if rng.Intn(2) == 0 {
						q = distinctWhere(rng, tables[0])
					}
					cn, err := c.CreateConsumer(q, rgma.ContinuousQuery, nil)
					if err != nil {
						t.Error(err)
						return
					}
					cns = append(cns, cn.ID())
				case 3, 4: // close one
					if len(cns) == 0 {
						continue
					}
					i := rng.Intn(len(cns))
					if err := c.CloseConsumer(cns[i]); err != nil {
						t.Error(err)
						return
					}
					cns = append(cns[:i], cns[i+1:]...)
				case 5: // producer index churn: create, insert once, close
					p, err := c.CreateProducer(tables[rng.Intn(len(tables))], sim.Second, sim.Second)
					if err != nil {
						t.Error(err)
						return
					}
					stmt := fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %d, 'churn')",
						p.tableName, rng.Intn(20), rng.Intn(100))
					if err := c.Insert(p.ID(), stmt); err != nil {
						t.Error(err)
						return
					}
					if err := c.CloseProducer(p.ID()); err != nil {
						t.Error(err)
						return
					}
				default: // pop one
					if len(cns) == 0 {
						continue
					}
					if _, err := c.Pop(cns[rng.Intn(len(cns))]); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for _, id := range cns {
				if err := c.CloseConsumer(id); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			tab := tables[g%len(tables)]
			p, err := c.CreateProducer(tab, sim.Second, sim.Second)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < stormMsgs; i++ {
				stmt := fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %d, 'storm')",
					tab, rng.Intn(20), rng.Intn(100))
				if err := c.Insert(p.ID(), stmt); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.CloseProducer(p.ID()); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	// Quiesced: every storm resource is closed, so the latest/history
	// gathers below see only phase-2 producers and the continuous
	// probes buffer only phase-2 inserts.
	if p, cn := c.RegistryCounts(); p != 0 || cn != 0 {
		t.Fatalf("%d producers, %d consumers survived the storm", p, cn)
	}

	// --- Phase 2: deterministic probe over the quiesced core; the
	// oracle sees only these ops.
	type probeSpec struct {
		query string
		qtype rgma.QueryType
	}
	specs := []probeSpec{
		{"SELECT * FROM t0", rgma.ContinuousQuery},
		{"SELECT * FROM t0 WHERE seq < 50", rgma.ContinuousQuery},
		{"SELECT * FROM t1 WHERE seq >= 50", rgma.ContinuousQuery},
		{"SELECT * FROM t2", rgma.ContinuousQuery},
		{"SELECT * FROM t0 WHERE seq < 25", rgma.LatestQuery},
		{"SELECT * FROM t1", rgma.HistoryQuery},
	}
	var probes []*Consumer
	for _, s := range specs {
		cn, err := c.CreateConsumer(s.query, s.qtype, nil)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, cn)
		orc.addConsumer(cn.ID(), s.query, s.qtype)
	}
	prods := make(map[string]*Producer, len(tables))
	for _, tab := range tables {
		p, err := c.CreateProducer(tab, sim.Second, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		prods[tab] = p
		orc.addProducer(p.ID(), tab, sim.Second, sim.Second)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < probeMsgs; i++ {
		tab := tables[rng.Intn(len(tables))]
		stmt := fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %d, 'probe')",
			tab, i, rng.Intn(100))
		if err := c.Insert(prods[tab].ID(), stmt); err != nil {
			t.Fatal(err)
		}
		orc.insert(prods[tab].ID(), stmt, 0)
	}
	for i, cn := range probes {
		got, err := c.Pop(cn.ID())
		if err != nil {
			t.Fatal(err)
		}
		if want := orc.pop(cn.ID(), 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-churn probe %d pops diverge:\ncore:   %v\noracle: %v", i, got, want)
		}
	}
}

// TestConsumerChurnAllocsFlat is the quadratic-regression guard for the
// table route's write side: closing and re-creating one continuous
// consumer beside n others patches the route and its matching index, so
// its allocations do not grow with n.
func TestConsumerChurnAllocsFlat(t *testing.T) {
	const churn = "SELECT * FROM hot WHERE seq = -1"
	perPair := func(n int) float64 {
		c := New(Config{})
		mustCreateTable(t, c, "CREATE TABLE hot (genid INTEGER PRIMARY KEY, seq INTEGER)")
		for k := 0; k < n; k++ {
			if _, err := c.CreateConsumer(fmt.Sprintf("SELECT * FROM hot WHERE seq = %d", k), rgma.ContinuousQuery, nil); err != nil {
				t.Fatal(err)
			}
		}
		cn, err := c.CreateConsumer(churn, rgma.ContinuousQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if err := c.CloseConsumer(cn.ID()); err != nil {
				t.Fatal(err)
			}
			if cn, err = c.CreateConsumer(churn, rgma.ContinuousQuery, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perPair(100), perPair(1000)
	t.Logf("allocations per close+create: %.1f at 100 consumers, %.1f at 1000", small, large)
	if large > 1.5*small {
		t.Fatalf("close+create allocates %.1f at 1000 consumers vs %.1f at 100: grows with the table", large, small)
	}
}
