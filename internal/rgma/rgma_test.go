package rgma

import (
	"strings"
	"testing"
	"testing/quick"

	"gridmon/internal/sim"
	"gridmon/internal/simnet"
	"gridmon/internal/sqlmini"
)

// --- TupleStore ---

func TestTupleStoreLatestAndHistory(t *testing.T) {
	tab := MonitoringTable()
	s := NewTupleStore(tab, 30*sim.Second, sim.Minute)
	star, _ := ParseQuery("SELECT * FROM generator")
	// Two inserts for the same generator: latest keeps one, history both.
	s.Insert(Tuple{Row: MonitoringRow(1, 1), InsertedAt: 0})
	s.Insert(Tuple{Row: MonitoringRow(1, 2), InsertedAt: 10 * sim.Second})
	s.Insert(Tuple{Row: MonitoringRow(2, 1), InsertedAt: 10 * sim.Second})
	if got := len(s.HistoryCompiled(15*sim.Second, star.Compiled(tab))); got != 3 {
		t.Fatalf("history = %d, want 3", got)
	}
	latest := s.LatestCompiled(15*sim.Second, star.Compiled(tab))
	if len(latest) != 2 {
		t.Fatalf("latest = %d, want 2 (one per genid)", len(latest))
	}
	for _, tu := range latest {
		if tu.Row[0].Equal(sqlmini.IntV(1)) && !tu.Row[1].Equal(sqlmini.IntV(2)) {
			t.Fatalf("latest for genid 1 is seq %v, want 2", tu.Row[1])
		}
	}
}

func TestTupleStoreRetention(t *testing.T) {
	tab := MonitoringTable()
	s := NewTupleStore(tab, 30*sim.Second, sim.Minute)
	star, _ := ParseQuery("SELECT * FROM generator")
	s.Insert(Tuple{Row: MonitoringRow(1, 1), InsertedAt: 0})
	// At 40s the latest (30s) has expired but history (60s) remains.
	if got := len(s.LatestCompiled(40*sim.Second, star.Compiled(tab))); got != 0 {
		t.Fatalf("latest after 40s = %d", got)
	}
	if got := len(s.HistoryCompiled(40*sim.Second, star.Compiled(tab))); got != 1 {
		t.Fatalf("history after 40s = %d", got)
	}
	// At 90s history has expired too.
	if got := len(s.HistoryCompiled(90*sim.Second, star.Compiled(tab))); got != 0 {
		t.Fatalf("history after 90s = %d", got)
	}
}

// A sweep that expires a few tuples must not copy the survivors: the
// insert path sweeps every few dozen inserts, so a copy there costs the
// whole retained history each time.
func TestTupleStorePurgeDoesNotCopy(t *testing.T) {
	const n, runs = 1000, 100
	s := NewTupleStore(MonitoringTable(), sim.Second, sim.Second)
	for i := range n {
		s.Insert(Tuple{Row: MonitoringRow(1, int64(i)), InsertedAt: sim.Time(i) * sim.Millisecond})
	}
	now := sim.Second
	allocs := testing.AllocsPerRun(runs, func() {
		now += sim.Millisecond // one more tuple past its retention
		s.Purge(now)
	})
	if allocs != 0 {
		t.Fatalf("Purge allocated %v times per call, want 0", allocs)
	}
	// AllocsPerRun calls the function runs+1 times.
	if got, want := s.Len(), n-(runs+1); got != want {
		t.Fatalf("history = %d after purging, want %d", got, want)
	}
}

func TestTupleStoreQueryFilter(t *testing.T) {
	tab := MonitoringTable()
	s := NewTupleStore(tab, sim.Minute, sim.Minute)
	for i := 0; i < 10; i++ {
		s.Insert(Tuple{Row: MonitoringRow(i, 1), InsertedAt: 0})
	}
	q, _ := ParseQuery("SELECT * FROM generator WHERE genid < 3")
	if got := len(s.HistoryCompiled(0, q.Compiled(tab))); got != 3 {
		t.Fatalf("filtered history = %d, want 3", got)
	}
}

func TestTupleStoreBadRetentionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero retention did not panic")
		}
	}()
	NewTupleStore(MonitoringTable(), 0, sim.Minute)
}

func TestMonitoringRowMatchesSchema(t *testing.T) {
	tab := MonitoringTable()
	if err := sqlmini.CheckRow(tab, MonitoringRow(7, 3)); err != nil {
		t.Fatalf("monitoring row invalid: %v", err)
	}
	counts := map[sqlmini.ColType]int{}
	for _, c := range tab.Columns {
		counts[c.Type]++
	}
	if counts[sqlmini.TInteger] != 4 || counts[sqlmini.TDouble] != 8 || counts[sqlmini.TChar] != 4 {
		t.Fatalf("paper schema mix wrong: %v", counts)
	}
}

// --- Registry ---

func TestRegistryMediation(t *testing.T) {
	r := NewRegistry()
	p1 := r.RegisterProducer(ProducerEntry{Kind: PrimaryKind, Table: "generator", Service: 0})
	p2 := r.RegisterProducer(ProducerEntry{Kind: SecondaryKind, Table: "generator", Service: 1})
	r.RegisterProducer(ProducerEntry{Kind: PrimaryKind, Table: "other", Service: 0})
	if got := len(r.ProducersFor("generator", 0)); got != 2 {
		t.Fatalf("any-kind producers = %d", got)
	}
	if got := r.ProducersFor("generator", PrimaryKind); len(got) != 1 || got[0].ID != p1 {
		t.Fatalf("primary producers = %v", got)
	}
	if got := r.ProducersFor("GENERATOR", SecondaryKind); len(got) != 1 || got[0].ID != p2 {
		t.Fatalf("case-insensitive secondary = %v", got)
	}
	r.UnregisterProducer(p1)
	if got := len(r.ProducersFor("generator", 0)); got != 1 {
		t.Fatalf("after unregister = %d", got)
	}
	pn, cn := r.Counts()
	if pn != 2 || cn != 0 {
		t.Fatalf("counts = %d/%d", pn, cn)
	}
}

func TestParseQuery(t *testing.T) {
	if _, err := ParseQuery("SELECT * FROM generator WHERE genid < 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseQuery("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("non-SELECT accepted")
	}
	if _, err := ParseQuery("SELECT FROM"); err == nil {
		t.Fatal("garbage accepted")
	}
	if ContinuousQuery.String() != "CONTINUOUS" || LatestQuery.String() != "LATEST" || HistoryQuery.String() != "HISTORY" {
		t.Fatal("query type names")
	}
	if PrimaryKind.String() != "PrimaryProducer" || SecondaryKind.String() != "SecondaryProducer" {
		t.Fatal("kind names")
	}
}

// --- Deployment end to end ---

type rgmaWorld struct {
	k    *sim.Kernel
	net  *simnet.Network
	dep  *Deployment
	psvc *ProducerService
	csvc *ConsumerService
	cli  *simnet.Node
}

// singleServer builds the paper's single-server configuration: registry,
// producer and consumer services all on one Hydra node.
func singleServer(seed int64) *rgmaWorld {
	k := sim.New(seed)
	net := simnet.New(k)
	server := net.AddNode("server", simnet.HydraNode())
	cli := net.AddNode("client1", simnet.HydraNode())
	dep := NewDeployment(net, server, DefaultCosts())
	dep.CreateTable(MonitoringTable())
	return &rgmaWorld{
		k: k, net: net, dep: dep,
		psvc: dep.AddProducerService(server),
		csvc: dep.AddConsumerService(server),
		cli:  cli,
	}
}

func TestEndToEndContinuous(t *testing.T) {
	w := singleServer(1)
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", ContinuousQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := StartSubscriber(cons)
	pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up (the paper's guidance), then insert every 10 s.
	for i := 1; i <= 5; i++ {
		seq := int64(i)
		w.k.At(sim.Time(10+10*i)*sim.Second, func() { pp.Insert(MonitoringRow(1, seq)) })
	}
	w.k.RunUntil(3 * sim.Minute)
	sub.Stop()
	if sub.Received() != 5 {
		t.Fatalf("received = %d, want 5", sub.Received())
	}
	mean := sub.RTT().Mean()
	// R-GMA RTT must be in the sub-second to seconds regime at light
	// load — orders of magnitude above the broker's milliseconds.
	if mean < 100 || mean > 5000 {
		t.Fatalf("R-GMA mean RTT = %v ms, outside plausible band", mean)
	}
}

func TestContentFiltering(t *testing.T) {
	w := singleServer(2)
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator WHERE genid < 2", ContinuousQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := StartSubscriber(cons)
	for g := 0; g < 4; g++ {
		pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute)
		if err != nil {
			t.Fatal(err)
		}
		g := g
		w.k.At(20*sim.Second, func() { pp.Insert(MonitoringRow(g, 1)) })
	}
	w.k.RunUntil(sim.Minute)
	if sub.Received() != 2 {
		t.Fatalf("filtered received = %d, want 2 (genid 0 and 1)", sub.Received())
	}
}

func TestInsertAckPRT(t *testing.T) {
	w := singleServer(3)
	pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var prt sim.Time
	pp.OnInsertAck = func(seq int64, at sim.Time) { prt = at }
	var sent sim.Time
	w.k.At(10*sim.Second, func() {
		sent = w.k.Now()
		pp.Insert(MonitoringRow(1, 1))
	})
	w.k.RunUntil(20 * sim.Second)
	if prt == 0 {
		t.Fatal("no insert ack")
	}
	d := prt - sent
	// Publishing response time is short (paper fig. 15: tens of ms).
	if d < sim.Millisecond || d > 200*sim.Millisecond {
		t.Fatalf("PRT = %v, outside short-request band", d)
	}
}

func TestLatestQueryGather(t *testing.T) {
	w := singleServer(4)
	pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", sim.Minute, 2*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w.k.At(10*sim.Second, func() { pp.Insert(MonitoringRow(1, 1)) })
	w.k.At(20*sim.Second, func() { pp.Insert(MonitoringRow(1, 2)) })
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", LatestQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []StreamedTuple
	w.k.At(40*sim.Second, func() { cons.Pop(func(b []StreamedTuple) { got = b }) })
	w.k.RunUntil(sim.Minute)
	if len(got) != 1 {
		t.Fatalf("latest gather = %d tuples, want 1", len(got))
	}
	if !got[0].Row[1].Equal(sqlmini.IntV(2)) {
		t.Fatalf("latest seq = %v, want 2", got[0].Row[1])
	}
}

func TestHistoryQueryGather(t *testing.T) {
	w := singleServer(5)
	pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", sim.Minute, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w.k.At(10*sim.Second, func() { pp.Insert(MonitoringRow(1, 1)) })
	w.k.At(20*sim.Second, func() { pp.Insert(MonitoringRow(1, 2)) })
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", HistoryQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []StreamedTuple
	w.k.At(40*sim.Second, func() { cons.Pop(func(b []StreamedTuple) { got = b }) })
	w.k.RunUntil(sim.Minute)
	if len(got) != 2 {
		t.Fatalf("history gather = %d tuples, want 2", len(got))
	}
}

func TestWarmupLoss(t *testing.T) {
	// Publishing immediately after creation loses the first tuples: the
	// consumer has not yet mediated to the new producer (§III.F).
	w := singleServer(6)
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", ContinuousQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := StartSubscriber(cons)
	w.k.At(30*sim.Second, func() {
		pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute)
		if err != nil {
			t.Error(err)
			return
		}
		pp.Insert(MonitoringRow(1, 1)) // immediately, no warm-up
		for i := 2; i <= 4; i++ {
			seq := int64(i)
			w.k.After(sim.Time(i-1)*10*sim.Second, func() { pp.Insert(MonitoringRow(1, seq)) })
		}
	})
	w.k.RunUntil(2 * sim.Minute)
	if sub.Received() >= 4 {
		t.Fatalf("received %d of 4: warm-up loss did not occur", sub.Received())
	}
	if sub.Received() < 2 {
		t.Fatalf("received only %d: mediation never caught up", sub.Received())
	}
}

func TestSecondaryProducerDelay(t *testing.T) {
	w := singleServer(7)
	if _, err := w.dep.CreateSecondaryProducer(w.psvc, w.csvc, "generator", sim.Minute, 2*sim.Minute); err != nil {
		t.Fatal(err)
	}
	// Subscriber reads from the secondary producer only (fig. 10 chain).
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", ContinuousQuery, SecondaryKind)
	if err != nil {
		t.Fatal(err)
	}
	sub := StartSubscriber(cons)
	pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", sim.Minute, 2*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w.k.At(15*sim.Second, func() { pp.Insert(MonitoringRow(1, 1)) })
	w.k.RunUntil(2 * sim.Minute)
	if sub.Received() != 1 {
		t.Fatalf("received = %d, want 1", sub.Received())
	}
	// The secondary chain must add roughly the deliberate 30 s delay.
	if rtt := sub.RTT().Mean(); rtt < 30000 || rtt > 40000 {
		t.Fatalf("secondary-chain RTT = %v ms, want ~30-40 s", rtt)
	}
}

func TestProducerOOMAround800(t *testing.T) {
	w := singleServer(8)
	created := 0
	for i := 0; i < 1000; i++ {
		if _, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute); err != nil {
			break
		}
		created++
	}
	// 1 GB heap minus 64 MB baseline over ~1.15 MB per producer: the
	// paper's "one R-GMA server cannot accept 800 concurrent
	// connections".
	if created < 700 || created >= 900 {
		t.Fatalf("single server accepted %d producers, want a cliff near 800", created)
	}
	if w.dep.RefusedProducers() != 1 {
		t.Fatalf("refused = %d", w.dep.RefusedProducers())
	}
}

func TestGCFactorGrowsWithHeap(t *testing.T) {
	w := singleServer(9)
	node := w.psvc.Node()
	f0 := w.dep.gcFactor(node)
	for i := 0; i < 400; i++ {
		if _, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute); err != nil {
			t.Fatal(err)
		}
	}
	f400 := w.dep.gcFactor(node)
	if !(f400 > f0 && f0 >= 1) {
		t.Fatalf("gc factor not increasing: %v -> %v", f0, f400)
	}
}

func TestBadInputs(t *testing.T) {
	w := singleServer(10)
	if _, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "nope", sim.Second, sim.Second); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM nope", ContinuousQuery, 0); err == nil {
		t.Fatal("consumer on unknown table accepted")
	}
	if _, err := w.dep.CreateConsumer(w.cli, w.csvc, "not sql", ContinuousQuery, 0); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := w.dep.CreateSecondaryProducer(w.psvc, w.csvc, "nope", sim.Second, sim.Second); err == nil {
		t.Fatal("secondary on unknown table accepted")
	}
}

func TestCloseFreesResources(t *testing.T) {
	w := singleServer(11)
	node := w.psvc.Node()
	base := node.Heap.Used()
	pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", ContinuousQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(10 * sim.Second)
	pp.Close()
	cons.Close()
	pp.Close() // double close is a no-op
	if node.Heap.Used() != base {
		t.Fatalf("heap not restored: %d vs %d", node.Heap.Used(), base)
	}
	p, c := w.dep.Registry().Counts()
	if p != 0 || c != 0 {
		t.Fatalf("registry not cleaned: %d/%d", p, c)
	}
}

func TestDistributedFasterThanSingleUnderLoad(t *testing.T) {
	// The paper's headline R-GMA result: the distributed deployment
	// outperforms the single server. Run 120 producers against both.
	run := func(distributed bool) float64 {
		k := sim.New(20)
		net := simnet.New(k)
		cli := net.AddNode("client1", simnet.HydraNode())
		var dep *Deployment
		var psvc *ProducerService
		var csvc *ConsumerService
		if distributed {
			p1 := net.AddNode("prod1", simnet.HydraNode())
			c1 := net.AddNode("cons1", simnet.HydraNode())
			dep = NewDeployment(net, c1, DefaultCosts())
			psvc = dep.AddProducerService(p1)
			csvc = dep.AddConsumerService(c1)
		} else {
			server := net.AddNode("server", simnet.HydraNode())
			dep = NewDeployment(net, server, DefaultCosts())
			psvc = dep.AddProducerService(server)
			csvc = dep.AddConsumerService(server)
		}
		dep.CreateTable(MonitoringTable())
		cons, err := dep.CreateConsumer(cli, csvc, "SELECT * FROM generator", ContinuousQuery, 0)
		if err != nil {
			t.Fatal(err)
		}
		sub := StartSubscriber(cons)
		for g := 0; g < 120; g++ {
			g := g
			k.At(sim.Time(g)*sim.Second, func() {
				pp, err := dep.CreatePrimaryProducer(cli, psvc, "generator", 30*sim.Second, sim.Minute)
				if err != nil {
					t.Error(err)
					return
				}
				for s := 1; s <= 6; s++ {
					seq := int64(s)
					k.After(sim.Time(10+10*s)*sim.Second, func() { pp.Insert(MonitoringRow(g, seq)) })
				}
			})
		}
		k.RunUntil(5 * sim.Minute)
		sub.Stop()
		if sub.Received() == 0 {
			t.Fatal("no deliveries")
		}
		return sub.RTT().Mean()
	}
	single := run(false)
	dist := run(true)
	if dist >= single {
		t.Fatalf("distributed RTT %.0f ms not below single-server %.0f ms", dist, single)
	}
}

func TestDeterministicRGMA(t *testing.T) {
	run := func() (uint64, float64) {
		w := singleServer(42)
		cons, err := w.dep.CreateConsumer(w.cli, w.csvc, "SELECT * FROM generator", ContinuousQuery, 0)
		if err != nil {
			t.Fatal(err)
		}
		sub := StartSubscriber(cons)
		pp, err := w.dep.CreatePrimaryProducer(w.cli, w.psvc, "generator", 30*sim.Second, sim.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			seq := int64(i)
			w.k.At(sim.Time(10+5*i)*sim.Second, func() { pp.Insert(MonitoringRow(1, seq)) })
		}
		w.k.RunUntil(3 * sim.Minute)
		return sub.Received(), sub.RTT().Mean()
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1 != r2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", r1, m1, r2, m2)
	}
}

// Property: the tuple store's latest view always holds at most one row
// per primary key, whatever the insert sequence.
func TestPropertyLatestUnique(t *testing.T) {
	tab := MonitoringTable()
	star, _ := ParseQuery("SELECT * FROM generator")
	f := func(ids []uint8) bool {
		s := NewTupleStore(tab, sim.Minute, sim.Minute)
		for i, id := range ids {
			s.Insert(Tuple{Row: MonitoringRow(int(id%10), int64(i)), InsertedAt: sim.Time(i)})
		}
		latest := s.LatestCompiled(sim.Time(len(ids)), star.Compiled(tab))
		seen := map[string]bool{}
		for _, tu := range latest {
			k := tu.Row[0].String()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return len(latest) <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatInsertIsValidSQL(t *testing.T) {
	tab := MonitoringTable()
	sql := sqlmini.FormatInsert(tab, MonitoringRow(3, 9))
	if !strings.HasPrefix(sql, "INSERT INTO generator") {
		t.Fatalf("sql = %q", sql)
	}
	if _, err := sqlmini.Parse(sql); err != nil {
		t.Fatalf("generated SQL does not parse: %v", err)
	}
}
