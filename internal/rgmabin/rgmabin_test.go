package rgmabin_test

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmacore"
	"gridmon/internal/rgmahttp"
	"gridmon/internal/wal"
	"gridmon/internal/wire"
)

const createSQL = `CREATE TABLE generator (
	genid INTEGER PRIMARY KEY, seq INTEGER,
	power DOUBLE PRECISION, site CHAR(20))`

func startBin(t *testing.T, cfg rgmacore.Config) (*rgmabin.Server, string) {
	t.Helper()
	s := rgmabin.NewServer(rgmacore.New(cfg), rgmabin.Config{})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, addr
}

func dial(t *testing.T, addr string) *rgmabin.Client {
	t.Helper()
	c, err := rgmabin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// collector accumulates pushed tuples thread-safely.
type collector struct {
	mu     sync.Mutex
	tuples []rgmabin.PoppedTuple
}

func (cl *collector) add(ts []rgmabin.PoppedTuple) {
	cl.mu.Lock()
	cl.tuples = append(cl.tuples, ts...)
	cl.mu.Unlock()
}

func (cl *collector) len() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.tuples)
}

func (cl *collector) snapshot() []rgmabin.PoppedTuple {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]rgmabin.PoppedTuple(nil), cl.tuples...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBinPushContinuous: the core push path end to end — batched
// inserts on one connection arrive at a continuous consumer on another,
// filtered by its WHERE predicate, in insert order, with no polling.
func TestBinPushContinuous(t *testing.T) {
	_, addr := startBin(t, rgmacore.Config{Shards: 4})
	prodConn, consConn := dial(t, addr), dial(t, addr)

	if err := prodConn.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	var got collector
	cons, err := consConn.CreateConsumer("SELECT * FROM generator WHERE genid < 10", "continuous", got.add)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prodConn.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	batch := []string{
		"INSERT INTO generator (genid, seq, power, site) VALUES (1, 1, 480.5, 'aberdeen')",
		"INSERT INTO generator (genid, seq, power, site) VALUES (99, 2, 1.0, 'filtered')",
		"INSERT INTO generator (genid, seq, power, site) VALUES (2, 3, 239.9, 'dundee')",
	}
	if err := p.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "2 pushed tuples", func() bool { return got.len() >= 2 })
	tuples := got.snapshot()
	if len(tuples) != 2 {
		t.Fatalf("pushed %d tuples, want 2 (WHERE filter)", len(tuples))
	}
	if tuples[0].Row[0] != "1" || tuples[1].Row[0] != "2" {
		t.Fatalf("push order = %v", tuples)
	}
	if !strings.Contains(tuples[0].Row[3], "aberdeen") {
		t.Fatalf("tuple = %v", tuples[0])
	}
	// Push-fed consumers cannot be popped.
	if _, err := cons.Pop(); err == nil {
		t.Fatal("pop of push-fed continuous consumer accepted")
	}
	if err := cons.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinLatestAndHistory: request/response queries over the binary
// transport.
func TestBinLatestAndHistory(t *testing.T) {
	_, addr := startBin(t, rgmacore.Config{Shards: 2})
	c := dial(t, addr)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		stmt := fmt.Sprintf("INSERT INTO generator (genid, seq, power, site) VALUES (7, %d, 480.5, 'aberdeen')", seq)
		if err := p.Insert(stmt); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := c.CreateConsumer("SELECT * FROM generator WHERE genid = 7", "latest", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := latest.Pop()
	if err != nil || len(got) != 1 || got[0].Row[1] != "3" {
		t.Fatalf("latest pop = %v, %v; want one row at seq 3", got, err)
	}
	history, err := c.CreateConsumer("SELECT * FROM generator", "history", nil)
	if err != nil {
		t.Fatal(err)
	}
	hgot, err := history.Pop()
	if err != nil || len(hgot) != 3 {
		t.Fatalf("history pop = %v, %v; want 3 rows", hgot, err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinErrors: server-side failures surface as typed ServerErrors.
func TestBinErrors(t *testing.T) {
	_, addr := startBin(t, rgmacore.Config{Shards: 1})
	c := dial(t, addr)

	_, err := c.CreatePrimaryProducer("nosuch", time.Second, time.Second)
	var se *rgmabin.ServerError
	if !asServerError(err, &se) || !se.NotFound() {
		t.Fatalf("producer on unknown table: %v", err)
	}
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatalf("identical re-create over bin rejected: %v", err)
	}
	err = c.CreateTable("CREATE TABLE generator (genid INTEGER PRIMARY KEY)")
	if !asServerError(err, &se) || !se.Conflict() {
		t.Fatalf("conflicting re-create: %v", err)
	}
	if err := c.CreateTable("SELECT * FROM generator"); err == nil {
		t.Fatal("non-CREATE accepted")
	}
	if _, err := c.CreateConsumer("SELECT * FROM generator", "continuous", nil); err == nil {
		t.Fatal("continuous consumer without callback accepted")
	}
	if _, err := c.CreateConsumer("SELECT * FROM generator", "latest", func([]rgmabin.PoppedTuple) {}); err == nil {
		t.Fatal("latest consumer with callback accepted")
	}
	if _, err := c.CreatePrimaryProducer("generator", 0, time.Second); err == nil {
		t.Fatal("zero retention accepted")
	}
}

func asServerError(err error, out **rgmabin.ServerError) bool {
	se, ok := err.(*rgmabin.ServerError)
	if ok {
		*out = se
	}
	return ok
}

// TestBinSharedCoreWithHTTP: both transports wrap one core — a table
// and producer created over HTTP feed a push consumer on the binary
// port, the deployment cmd/rgmad runs.
func TestBinSharedCoreWithHTTP(t *testing.T) {
	hs := rgmahttp.NewServerWith(rgmahttp.Config{Shards: 2})
	haddr, err := hs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hs.Close() })
	bs := rgmabin.NewServer(hs.Core(), rgmabin.Config{})
	baddr, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bs.Close() })

	hc := rgmahttp.NewClient(haddr)
	if err := hc.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	bc := dial(t, baddr)
	var got collector
	if _, err := bc.CreateConsumer("SELECT * FROM generator", "continuous", got.add); err != nil {
		t.Fatal(err)
	}
	p, err := hc.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert("INSERT INTO generator (genid, seq, power, site) VALUES (1, 1, 480.5, 'aberdeen')"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cross-transport push", func() bool { return got.len() == 1 })
	if row := got.snapshot()[0].Row; row[0] != "1" {
		t.Fatalf("cross-transport tuple = %v", row)
	}
}

// TestBinConnTeardownReleasesResources: a dying connection's producers
// and consumers are released in the core, so crashed clients do not
// strand push sinks in the fan-out index.
func TestBinConnTeardownReleasesResources(t *testing.T) {
	s, addr := startBin(t, rgmacore.Config{Shards: 2})
	c := dial(t, addr)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePrimaryProducer("generator", time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateConsumer("SELECT * FROM generator", "continuous", func([]rgmabin.PoppedTuple) {}); err != nil {
		t.Fatal(err)
	}
	if p, cn := s.Core().RegistryCounts(); p != 1 || cn != 1 {
		t.Fatalf("registry = %d/%d before close", p, cn)
	}
	_ = c.Close()
	waitFor(t, "teardown to release resources", func() bool {
		p, cn := s.Core().RegistryCounts()
		return p == 0 && cn == 0
	})
}

// rowKey flattens a tuple's cells for multiset comparison.
func rowKey(cells []string) string { return strings.Join(cells, "|") }

// sortedRowKeys renders any transport's delivered tuples as a sorted
// multiset of row renderings (InsertedAt is wall-clock and transport
// timing dependent, so only cells participate).
func sortedRowKeys[T any](tuples []T, row func(T) []string) []string {
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = rowKey(row(t))
	}
	sort.Strings(keys)
	return keys
}

// TestTransportEquivalence runs the same workload against a pure-HTTP
// server and a pure-binary server and pins identical delivered tuple
// multisets for all three query types — HTTP stays the interop/serial
// baseline, the binary transport must not change what is delivered,
// only how fast.
func TestTransportEquivalence(t *testing.T) {
	const n = 40
	workloadStmt := func(i int) string {
		return fmt.Sprintf(
			"INSERT INTO generator (genid, seq, power, site) VALUES (%d, %d, %g, 'site-%04d')",
			i%5, i, 100.5+float64(i), i%3)
	}
	continuousQ := "SELECT * FROM generator WHERE seq < 30"
	latestQ := "SELECT * FROM generator WHERE genid < 3"
	historyQ := "SELECT * FROM generator"

	// HTTP: poll-driven continuous consumer.
	hs := rgmahttp.NewServerWith(rgmahttp.Config{Shards: 2})
	haddr, err := hs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hs.Close() })
	hc := rgmahttp.NewClient(haddr)
	if err := hc.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	hcont, err := hc.CreateConsumer(continuousQ, "continuous")
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hc.CreatePrimaryProducer("generator", time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := hp.Insert(workloadStmt(i)); err != nil {
			t.Fatal(err)
		}
	}
	var httpCont []rgmahttp.PoppedTuple
	for len(httpCont) < 30 {
		got, err := hcont.Pop()
		if err != nil {
			t.Fatal(err)
		}
		httpCont = append(httpCont, got...)
	}
	hlat, err := hc.CreateConsumer(latestQ, "latest")
	if err != nil {
		t.Fatal(err)
	}
	httpLatest, err := hlat.Pop()
	if err != nil {
		t.Fatal(err)
	}
	hhist, err := hc.CreateConsumer(historyQ, "history")
	if err != nil {
		t.Fatal(err)
	}
	httpHistory, err := hhist.Pop()
	if err != nil {
		t.Fatal(err)
	}

	// Binary: push-driven continuous consumer, same workload.
	_, baddr := startBin(t, rgmacore.Config{Shards: 2})
	bc := dial(t, baddr)
	if err := bc.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	var binCont collector
	if _, err := bc.CreateConsumer(continuousQ, "continuous", binCont.add); err != nil {
		t.Fatal(err)
	}
	bp, err := bc.CreatePrimaryProducer("generator", time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]string, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, workloadStmt(i))
	}
	if err := bp.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "binary continuous delivery", func() bool { return binCont.len() >= 30 })
	blat, err := bc.CreateConsumer(latestQ, "latest", nil)
	if err != nil {
		t.Fatal(err)
	}
	binLatest, err := blat.Pop()
	if err != nil {
		t.Fatal(err)
	}
	bhist, err := bc.CreateConsumer(historyQ, "history", nil)
	if err != nil {
		t.Fatal(err)
	}
	binHistory, err := bhist.Pop()
	if err != nil {
		t.Fatal(err)
	}

	httpRow := func(t rgmahttp.PoppedTuple) []string { return t.Row }
	binRow := func(t rgmabin.PoppedTuple) []string { return t.Row }
	for _, cmp := range []struct {
		name       string
		http, bin  []string
		wantTuples int
	}{
		{"continuous", sortedRowKeys(httpCont, httpRow), sortedRowKeys(binCont.snapshot(), binRow), 30},
		{"latest", sortedRowKeys(httpLatest, httpRow), sortedRowKeys(binLatest, binRow), 3},
		{"history", sortedRowKeys(httpHistory, httpRow), sortedRowKeys(binHistory, binRow), n},
	} {
		if len(cmp.http) != cmp.wantTuples {
			t.Fatalf("%s: HTTP delivered %d tuples, want %d", cmp.name, len(cmp.http), cmp.wantTuples)
		}
		if len(cmp.bin) != len(cmp.http) {
			t.Fatalf("%s: binary delivered %d tuples, HTTP %d", cmp.name, len(cmp.bin), len(cmp.http))
		}
		for i := range cmp.http {
			if cmp.http[i] != cmp.bin[i] {
				t.Fatalf("%s multiset diverges at %d:\n http: %s\n bin:  %s", cmp.name, i, cmp.http[i], cmp.bin[i])
			}
		}
	}
}

// TestBinConcurrentPushInsertStress is the -race stress: several
// producer connections batch-insert concurrently while several push-fed
// consumer connections subscribe with overlapping predicates; every
// consumer must receive exactly the tuples its predicate selects.
func TestBinConcurrentPushInsertStress(t *testing.T) {
	const (
		producers       = 4
		perProducer     = 200
		totalInserts    = producers * perProducer
		batchSize       = 20
		consumers       = 3
		matchingPerCons = totalInserts / 2 // seq is 0-based: seq < total/2
	)
	s := rgmabin.NewServer(rgmacore.New(rgmacore.Config{Shards: 4}),
		rgmabin.Config{WriteBuffer: 8 * totalInserts})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	if err := dial(t, addr).CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	cols := make([]*collector, consumers)
	for i := range cols {
		cols[i] = &collector{}
		cc := dial(t, addr)
		q := fmt.Sprintf("SELECT * FROM generator WHERE seq < %d", matchingPerCons)
		if _, err := cc.CreateConsumer(q, "continuous", cols[i].add); err != nil {
			t.Fatal(err)
		}
	}

	var seq atomic.Int64
	seq.Store(-1)
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			pc, err := rgmabin.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer pc.Close()
			p, err := pc.CreatePrimaryProducer("generator", time.Minute, time.Minute)
			if err != nil {
				errs <- err
				return
			}
			batch := make([]string, 0, batchSize)
			for i := 0; i < perProducer; i++ {
				sq := seq.Add(1)
				batch = append(batch, fmt.Sprintf(
					"INSERT INTO generator (genid, seq, power, site) VALUES (%d, %d, 1.5, 'site-%04d')",
					pi, sq, pi))
				if len(batch) == batchSize {
					if err := p.InsertBatch(batch); err != nil {
						errs <- err
						return
					}
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				if err := p.InsertBatch(batch); err != nil {
					errs <- err
				}
			}
		}(pi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, col := range cols {
		waitFor(t, fmt.Sprintf("consumer %d full delivery", i), func() bool {
			return col.len() >= matchingPerCons
		})
		if got := col.len(); got != matchingPerCons {
			t.Fatalf("consumer %d received %d tuples, want exactly %d", i, got, matchingPerCons)
		}
		// No duplicates: every received seq is distinct.
		seen := make(map[string]bool, matchingPerCons)
		for _, tp := range col.tuples {
			if seen[tp.Row[1]] {
				t.Fatalf("consumer %d received duplicate seq %s", i, tp.Row[1])
			}
			seen[tp.Row[1]] = true
		}
	}
	if drops := s.SlowConsumerDrops(); drops != 0 {
		t.Fatalf("slow-consumer drops during stress: %d", drops)
	}
}

// TestBinSlowConsumerDropCountedOnce: a connection of push consumers
// that never reads its socket is dropped — and counted once, however
// many pushes found its queue full before and after the drop — while
// every insert of the producer beside it is acknowledged, and the
// dropped connection's consumers are released in the core.
func TestBinSlowConsumerDropCountedOnce(t *testing.T) {
	core := rgmacore.New(rgmacore.Config{Shards: 2})
	s := rgmabin.NewServer(core, rgmabin.Config{WriteBuffer: 4})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	prod := dial(t, addr)
	if err := prod.CreateTable("CREATE TABLE blob (id INTEGER PRIMARY KEY, pad VARCHAR(2000))"); err != nil {
		t.Fatal(err)
	}
	p, err := prod.CreatePrimaryProducer("blob", time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	_, consumersBefore := core.RegistryCounts()

	// The stalled client: handshake, continuous consumers, then silence.
	// Each insert pushes one frame per consumer in a row, four times the
	// queue, so the pushes following the overflowing one find the queue
	// full too and must not count again.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.(*net.TCPConn).SetReadBuffer(4 << 10)
	fr := wire.NewFrameReader(nc)
	reqs := []wire.Frame{wire.RGMAHello{ClientID: "stalled"}}
	for seq := int64(1); seq <= 16; seq++ {
		reqs = append(reqs, wire.RGMAConsumerCreate{Seq: seq, Query: "SELECT * FROM blob", QType: uint8(rgma.ContinuousQuery)})
	}
	for _, req := range reqs {
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		if f, err := fr.Read(); err != nil {
			t.Fatal(err)
		} else if _, ok := f.(wire.RGMAErr); ok {
			t.Fatalf("%v rejected: %+v", req.Type(), f)
		}
	}

	pad := strings.Repeat("x", 1000)
	inserted := 0
	insert := func(n int) {
		t.Helper()
		batch := make([]string, n)
		for i := range batch {
			inserted++
			batch[i] = fmt.Sprintf("INSERT INTO blob (id, pad) VALUES (%d, '%s')", inserted, pad)
		}
		if err := p.InsertBatch(batch); err != nil {
			t.Fatalf("insert %d not acknowledged: %v", inserted, err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.SlowConsumerDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled consumer never dropped")
		}
		insert(4)
	}
	for i := 0; i < 200; i++ {
		insert(1)
	}

	waitFor(t, "dropped consumer released", func() bool {
		_, cn := core.RegistryCounts()
		return cn == consumersBefore
	})
	if got := core.StatsSnapshot().Inserts; got != uint64(inserted) {
		t.Fatalf("core applied %d inserts, producer sent %d", got, inserted)
	}
	if drops := s.SlowConsumerDrops(); drops != 1 {
		t.Fatalf("SlowConsumerDrops = %d, want 1", drops)
	}
	if es := s.EgressStats(); es.SlowConsumerDrops != 1 {
		t.Fatalf("EgressStats().SlowConsumerDrops = %d, want 1", es.SlowConsumerDrops)
	}
}

// TestBinStats: the stats RPC reports core counters over the binary
// transport, and WAL counters only once a source is installed.
func TestBinStats(t *testing.T) {
	s, addr := startBin(t, rgmacore.Config{})
	c := dial(t, addr)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stmt := fmt.Sprintf("INSERT INTO generator (genid, seq, power, site) VALUES (%d, %d, 480.5, 'aberdeen')", i, i)
		if err := p.Insert(stmt); err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Producers != 1 || st.Inserts != 3 {
		t.Errorf("stats = %d producers / %d inserts, want 1 / 3", st.Producers, st.Inserts)
	}
	if st.WALEnabled || st.WALRecordsAppended != 0 {
		t.Errorf("WAL counters set without a source: %+v", st)
	}

	s.SetWALStats(func() wal.Stats {
		return wal.Stats{RecordsAppended: 7, BytesLogged: 123, Fsyncs: 2, ReplayRecords: 4, CleanStart: true}
	})
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.WALEnabled || st.WALRecordsAppended != 7 || st.WALBytesLogged != 123 ||
		st.WALFsyncs != 2 || st.WALReplayRecords != 4 || !st.WALCleanStart {
		t.Errorf("WAL stats not forwarded: %+v", st)
	}
}

// TestCloseWaitsForTeardown pins Close's quiescence promise: with four
// clients inserting 16-row batches into push-fed continuous consumers,
// the core must not move once Close returns — no insert still being
// applied, every producer and consumer already released — so a
// persister can dump it straight away.
func TestCloseWaitsForTeardown(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := rgmabin.NewServer(rgmacore.New(rgmacore.Config{Shards: 4}), rgmabin.Config{})
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		setup := dial(t, addr)
		if err := setup.CreateTable(createSQL); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			c := dial(t, addr)
			if _, err := c.CreateConsumer("SELECT * FROM generator", "continuous", func([]rgmabin.PoppedTuple) {}); err != nil {
				t.Fatal(err)
			}
			p, err := c.CreatePrimaryProducer("generator", time.Second, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				batch := make([]string, 16)
				for i := 0; ; i++ {
					for j := range batch {
						batch[j] = fmt.Sprintf("INSERT INTO generator (genid, seq, power, site) VALUES (%d, %d, 1.5, 'close')", w*16+j, i)
					}
					if p.InsertBatch(batch) != nil {
						return
					}
				}
			}(w)
		}
		waitFor(t, "inserts under way", func() bool { return s.Core().StatsSnapshot().Inserts >= 64 })

		_ = s.Close()
		atClose := s.Core().StatsSnapshot()
		time.Sleep(50 * time.Millisecond)
		if later := s.Core().StatsSnapshot(); later != atClose {
			t.Fatalf("round %d: core moved after Close returned\nat Close: %+v\n50ms on:  %+v", round, atClose, later)
		}
		if atClose.Producers != 0 || atClose.Consumers != 0 {
			t.Fatalf("round %d: Close returned with %d producers and %d consumers still registered", round, atClose.Producers, atClose.Consumers)
		}
		wg.Wait()
	}
}
