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
// consumer scan and Pop's latest/history producer gather. Mirrors the
// obligations of internal/broker's snapshot_test.go: every read-path
// mode must pop exactly what the naive oracle (oracle_test.go) predicts
// for any single-caller operation sequence, survive concurrent index
// churn under -race, and the ReadLockAcquisitions meter must prove
// which path ran.

// clearReadLocks zeroes the stats fields that legitimately differ
// across read-path and match modes — the lock meter and the matching-
// index meters. Everything else, TuplesStreamed above all, must match
// exactly: the index may only skip consumers whose predicate could not
// have matched.
func clearReadLocks(s Stats) Stats {
	s.ReadLockAcquisitions = 0
	s.MatchProgramEvals = 0
	s.MatchIndexCandidates = 0
	s.MatchConsumersSkipped = 0
	return s
}

// TestCoreSnapshotLockedEquivalenceRandomized drives identical
// randomized operation sequences — table declares, producer and
// consumer create/close churn (all query types), inserts, pops —
// through a snapshot-path core, a locked-path core and the oracle from
// a single goroutine, comparing every pop result with the oracle's
// prediction as it happens and the cores' stats at the end. Any index
// mutation missing its refreshSnap shows up as a pop divergence.
func TestCoreSnapshotLockedEquivalenceRandomized(t *testing.T) {
	runCoreEquivalence(t, func(cfg *Config) {}, func(cfg *Config) {
		cfg.LockedReadPath = true
	})
}

// runCoreEquivalence drives the randomized operation storm through one
// core per config mutation and through the oracle: every core must pop
// what the oracle predicts, and the cores must agree with each other on
// errors and stats (modulo clearReadLocks). Shared by the
// snapshot-vs-locked and indexed-vs-linear-match suites.
func runCoreEquivalence(t *testing.T, muts ...func(*Config)) {
	t.Helper()
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
		mk := func(mutate func(*Config)) *Core {
			cfg := Config{Shards: 4}
			mutate(&cfg)
			c := New(cfg)
			c.clock = func() sim.Time { return now }
			return c
		}
		var cores []*Core
		for _, mut := range muts {
			cores = append(cores, mk(mut))
		}
		orc := newOracleCore()
		both := func(fn func(c *Core) error) error {
			err0 := fn(cores[0])
			for _, c := range cores[1:] {
				if err := fn(c); (err == nil) != (err0 == nil) {
					t.Fatalf("seed %d: core 0 err %v, other core err %v", seed, err0, err)
				}
			}
			return err0
		}
		for _, tab := range tables {
			ddl := fmt.Sprintf("CREATE TABLE %s (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))", tab)
			if err := both(func(c *Core) error {
				_, err := c.CreateTable(ddl)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			orc.createTable(ddl)
		}

		rng := rand.New(rand.NewSource(seed))
		var producers, consumers []int64
		for op := 0; op < 600; op++ {
			now += sim.Time(rng.Intn(50)) * sim.Millisecond
			switch r := rng.Intn(20); {
			case r < 3: // create a producer (sometimes default retention)
				tab := tables[rng.Intn(len(tables))]
				ret := sim.Time(rng.Intn(3)) * sim.Second
				var id int64
				if err := both(func(c *Core) error {
					p, err := c.CreateProducer(tab, ret, ret)
					if err == nil {
						id = p.ID()
					}
					return err
				}); err == nil {
					producers = append(producers, id)
					orc.addProducer(id, tab, ret, ret)
				}
			case r < 5: // close a producer
				if len(producers) == 0 {
					continue
				}
				i := rng.Intn(len(producers))
				id := producers[i]
				producers = append(producers[:i], producers[i+1:]...)
				both(func(c *Core) error { return c.CloseProducer(id) })
				orc.closeProducer(id)
			case r < 9: // create a consumer (any query type)
				q := fmt.Sprintf(queries[rng.Intn(len(queries))], tables[rng.Intn(len(tables))])
				qt := qtypes[rng.Intn(len(qtypes))]
				var id int64
				if err := both(func(c *Core) error {
					cn, err := c.CreateConsumer(q, qt, nil)
					if err == nil {
						id = cn.ID()
					}
					return err
				}); err == nil {
					consumers = append(consumers, id)
					orc.addConsumer(id, q, qt)
				}
			case r < 11: // close a consumer
				if len(consumers) == 0 {
					continue
				}
				i := rng.Intn(len(consumers))
				id := consumers[i]
				consumers = append(consumers[:i], consumers[i+1:]...)
				both(func(c *Core) error { return c.CloseConsumer(id) })
				orc.closeConsumer(id)
			case r < 14: // pop a consumer, comparing the delivered tuples
				if len(consumers) == 0 {
					continue
				}
				id := consumers[rng.Intn(len(consumers))]
				want := orc.pop(id, now)
				for i, c := range cores {
					got, err := c.Pop(id)
					if err != nil {
						t.Fatalf("seed %d op %d core %d: pop of %d: %v", seed, op, i, id, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d core %d: pop of %d diverged\ncore:   %v\noracle: %v",
							seed, op, i, id, got, want)
					}
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
				if err := both(func(c *Core) error { return c.Insert(id, stmt) }); err != nil {
					t.Fatalf("seed %d op %d: insert: %v", seed, op, err)
				}
				orc.insert(id, stmt, now)
			}
		}

		s0 := clearReadLocks(cores[0].StatsSnapshot())
		for i, c := range cores[1:] {
			if si := clearReadLocks(c.StatsSnapshot()); si != s0 {
				t.Fatalf("seed %d: core 0 stats %+v != core %d %+v", seed, s0, i+1, si)
			}
		}
		if !cores[0].lockedRead {
			if got := cores[0].StatsSnapshot().ReadLockAcquisitions; got != 0 {
				t.Fatalf("seed %d: snapshot core took %d read-path locks", seed, got)
			}
		}
	}
}

// TestCoreReadPathLockMeters pins the meter contract: the snapshot path
// records zero read-path lock acquisitions; the locked baseline records
// exactly one per insert and one per latest/history pop (continuous
// drains touch only the consumer's own buffer lock in both modes).
func TestCoreReadPathLockMeters(t *testing.T) {
	run := func(locked bool) uint64 {
		c := New(Config{Shards: 2, LockedReadPath: locked})
		mustCreateTable(t, c, testTableSQL)
		p, err := c.CreateProducer("g", sim.Second, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		cont, err := c.CreateConsumer("SELECT * FROM g", rgma.ContinuousQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := c.CreateConsumer("SELECT * FROM g", rgma.LatestQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		const inserts, pops = 40, 10
		for i := 0; i < inserts; i++ {
			stmt := fmt.Sprintf("INSERT INTO g (genid, seq, site) VALUES (%d, %d, 'a')", i, i)
			if err := c.Insert(p.ID(), stmt); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < pops; i++ {
			if _, err := c.Pop(lat.ID()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Pop(cont.ID()); err != nil {
				t.Fatal(err)
			}
		}
		return c.StatsSnapshot().ReadLockAcquisitions
	}
	if got := run(false); got != 0 {
		t.Fatalf("snapshot mode took %d read-path locks, want 0", got)
	}
	if got, want := run(true), uint64(40+10); got != want {
		t.Fatalf("locked mode recorded %d read-path locks, want %d", got, want)
	}
}

// TestCoreSnapshotChurnEquivalence is the concurrent storm: goroutines
// churn producers and continuous consumers (create, pop, close) while
// inserters hammer the same tables, once per read-path mode. Delivery
// during the storm is inherently racy in both modes, so phase 1 asserts
// safety only (no races under -race, clean teardown). Then the storm
// quiesces — every phase-1 resource closed — and a deterministic probe
// set over fresh producers must pop exactly what a fresh oracle
// predicts, proving the churned-up snapshots converged to the state of
// a core that never saw the storm.
func TestCoreSnapshotChurnEquivalence(t *testing.T) {
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

	run := func(mutate func(*Config)) {
		cfg := Config{Shards: 4}
		mutate(&cfg)
		locked := cfg.LockedReadPath
		c := New(cfg)
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
					case 0, 1, 2: // create a continuous consumer
						q := fmt.Sprintf(queries[rng.Intn(len(queries))], tables[rng.Intn(len(tables))])
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
			t.Fatalf("locked=%v: %d producers, %d consumers survived the storm", locked, p, cn)
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
				t.Fatalf("locked=%v: post-churn probe %d pops diverge:\ncore:   %v\noracle: %v", locked, i, got, want)
			}
		}
		if !locked {
			if rl := c.StatsSnapshot().ReadLockAcquisitions; rl != 0 {
				t.Fatalf("snapshot mode took %d read-path shard locks", rl)
			}
		}
	}

	run(func(cfg *Config) {})
	run(func(cfg *Config) { cfg.LockedReadPath = true })
	// Same storm with the matching index off: in the default mode the
	// storm phase races concurrent per-table index rebuilds against
	// indexed inserts under -race.
	run(func(cfg *Config) { cfg.LinearMatch = true })
}
