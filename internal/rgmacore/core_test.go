package rgmacore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
)

const testTableSQL = "CREATE TABLE g (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))"

func mustCreateTable(t *testing.T, c *Core, sql string) {
	t.Helper()
	if _, err := c.CreateTable(sql); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTableRecreateKeepsStreams is the regression test for the
// blind-overwrite bug: re-declaring an existing table with an identical
// schema must be a no-op, so resources created before the re-create
// (which hold the original *sqlmini.Table) still identity-match
// resources created after it. Pre-fix, the second CreateTable replaced
// the schema object and this consumer never received the insert.
func TestCreateTableRecreateKeepsStreams(t *testing.T) {
	c := New(Config{})
	mustCreateTable(t, c, testTableSQL)

	// Consumer created against the original schema object.
	cn, err := c.CreateConsumer("SELECT * FROM g", rgma.ContinuousQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An idempotent re-create (e.g. a second client joining and
	// declaring its tables defensively)...
	mustCreateTable(t, c, testTableSQL)
	// ...then a producer created after it.
	p, err := c.CreateProducer("g", sim.Second, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(p.ID(), "INSERT INTO g (genid, seq, site) VALUES (1, 1, 'aberdeen')"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Pop(cn.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("consumer popped %d tuples after table re-create, want 1", len(got))
	}
	// And the old/new mix the other way: a consumer created after the
	// re-create still matches the original producer's store on pops.
	lat, err := c.CreateConsumer("SELECT * FROM g", rgma.LatestQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Pop(lat.ID()); err != nil || len(got) != 1 {
		t.Fatalf("latest pop across re-create = %v, %v", got, err)
	}
}

// TestCreateTableConflictingSchema: a re-create with a different schema
// must be refused (ErrConflict), not silently replace the table.
func TestCreateTableConflictingSchema(t *testing.T) {
	c := New(Config{})
	mustCreateTable(t, c, testTableSQL)
	_, err := c.CreateTable("CREATE TABLE g (genid INTEGER PRIMARY KEY, power DOUBLE PRECISION)")
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting re-create: err = %v, want ErrConflict", err)
	}
	// The original schema must still be in force.
	if err := func() error {
		p, err := c.CreateProducer("g", sim.Second, sim.Second)
		if err != nil {
			return err
		}
		return c.Insert(p.ID(), "INSERT INTO g (genid, seq, site) VALUES (2, 2, 'dundee')")
	}(); err != nil {
		t.Fatalf("original schema unusable after rejected re-create: %v", err)
	}
}

// TestInsertPathRetentionSweep is the regression test for the
// unbounded-history bug: a producer serving only continuous consumers
// never reaches the latest/history read paths, which were the only
// callers of TupleStore.Purge — so history grew without bound under the
// paper's primary workload. The insert path must now sweep (amortized).
func TestInsertPathRetentionSweep(t *testing.T) {
	c := New(Config{})
	now := sim.Time(0)
	c.clock = func() sim.Time { return now }
	mustCreateTable(t, c, testTableSQL)
	// Continuous consumer only: nothing ever calls Latest/History.
	if _, err := c.CreateConsumer("SELECT * FROM g", rgma.ContinuousQuery, nil); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProducer("g", sim.Second, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 200
	for i := 0; i < inserts; i++ {
		now += 100 * sim.Millisecond
		stmt := fmt.Sprintf("INSERT INTO g (genid, seq, site) VALUES (%d, %d, 'a')", i, i)
		if err := c.Insert(p.ID(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Store().Stats()
	if st.Purged == 0 {
		t.Fatalf("no retention sweep ran on the insert path: %+v", st)
	}
	// 1 s history retention at 10 inserts/s ≈ 10 live rows; allow slack
	// for the amortization interval. Pre-fix History == 200.
	if st.History > 40 {
		t.Fatalf("history grew to %d rows under a continuous-only workload (stats %+v)", st.History, st)
	}
}

// TestConsumerBufferCap is the regression test for the unbounded
// consumer buffer: an abandoned continuous consumer must hold at most
// MaxBuffered tuples, dropping the oldest, with the drops counted.
func TestConsumerBufferCap(t *testing.T) {
	c := New(Config{MaxBuffered: 10})
	mustCreateTable(t, c, testTableSQL)
	cn, err := c.CreateConsumer("SELECT * FROM g", rgma.ContinuousQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProducer("g", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 100
	for i := 1; i <= inserts; i++ {
		stmt := fmt.Sprintf("INSERT INTO g (genid, seq, site) VALUES (%d, %d, 'a')", i, i)
		if err := c.Insert(p.ID(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Pop(cn.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("buffered %d tuples, want cap 10", len(got))
	}
	// Drop-oldest: the survivors are the newest ten, in insert order.
	for i, tp := range got {
		if want := fmt.Sprintf("%d", inserts-9+i); tp.Row[0] != want {
			t.Fatalf("tuple %d = %v, want genid %s (newest retained, in order)", i, tp.Row, want)
		}
	}
	if cn.Dropped() != inserts-10 {
		t.Fatalf("consumer dropped = %d, want %d", cn.Dropped(), inserts-10)
	}
	if st := c.StatsSnapshot(); st.TuplesDropped != inserts-10 {
		t.Fatalf("stats TuplesDropped = %d, want %d", st.TuplesDropped, inserts-10)
	}
	// After draining, the buffer accepts tuples again without drops.
	if err := c.Insert(p.ID(), "INSERT INTO g (genid, seq, site) VALUES (500, 500, 'a')"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Pop(cn.ID()); len(got) != 1 || got[0].Row[0] != "500" {
		t.Fatalf("post-drain pop = %v", got)
	}
}

// TestRetentionSeconds pins the client-side rounding contract: round up
// to at least one whole second, reject non-positive periods.
func TestRetentionSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
		ok   bool
	}{
		{500 * time.Millisecond, 1, true},
		{time.Second, 1, true},
		{1100 * time.Millisecond, 2, true},
		{30 * time.Second, 30, true},
		{0, 0, false},
		{-time.Second, 0, false},
	}
	for _, tc := range cases {
		got, err := RetentionSeconds(tc.d)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("RetentionSeconds(%v) = %d, %v; want %d, ok=%v", tc.d, got, err, tc.want, tc.ok)
		}
	}
}

// TestSelectListRefused: a consumer receives whole tuples, so a SELECT
// list, which nothing would apply, is refused and installs nothing.
func TestSelectListRefused(t *testing.T) {
	c := New(Config{})
	mustCreateTable(t, c, testTableSQL)
	for _, q := range []string{"SELECT genid FROM g", "SELECT nosuch FROM g", "SELECT genid, site FROM g WHERE genid = 1"} {
		if _, err := c.CreateConsumer(q, rgma.ContinuousQuery, nil); err == nil || !strings.Contains(err.Error(), "only SELECT *") {
			t.Errorf("CreateConsumer(%q) = %v, want the SELECT * refusal", q, err)
		}
	}
	if _, n := c.RegistryCounts(); n != 0 {
		t.Fatalf("%d consumers installed", n)
	}
}

// TestPushFedConsumerRefusesPop: sink-backed continuous consumers are
// push-fed; popping them is a conflict, and the sink sees every tuple
// with the shared encode-once payload.
func TestPushFedConsumerRefusesPop(t *testing.T) {
	c := New(Config{})
	mustCreateTable(t, c, testTableSQL)
	var got [][]byte
	sink := func(id int64, st *Streamed) {
		got = append(got, st.Encoded(func(tp PopTuple) []byte { return []byte(tp.Row[0]) }))
	}
	cn, err := c.CreateConsumer("SELECT * FROM g", rgma.ContinuousQuery, sink)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProducer("g", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(p.ID(), "INSERT INTO g (genid, seq, site) VALUES (7, 7, 'a')"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "7" {
		t.Fatalf("sink saw %q", got)
	}
	if _, err := c.Pop(cn.ID()); !errors.Is(err, ErrConflict) {
		t.Fatalf("pop of push-fed consumer: err = %v, want ErrConflict", err)
	}
	// Sinks are rejected on request/response query types.
	if _, err := c.CreateConsumer("SELECT * FROM g", rgma.LatestQuery, sink); err == nil {
		t.Fatal("latest consumer with sink accepted")
	}
}
