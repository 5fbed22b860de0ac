package rgmawal_test

import (
	"fmt"
	"reflect"
	"testing"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/rgmawal"
	"gridmon/internal/sim"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
)

const tableSQL = "CREATE TABLE generator (genid INTEGER PRIMARY KEY, power DOUBLE PRECISION, site CHAR(20))"

func newCore() *rgmacore.Core {
	return rgmacore.New(rgmacore.Config{})
}

func insert(t *testing.T, c *rgmacore.Core, producerID int64, genid int, power float64, site string) {
	t.Helper()
	sql := fmt.Sprintf("INSERT INTO generator VALUES (%d, %g, '%s')", genid, power, site)
	if err := c.Insert(producerID, sql); err != nil {
		t.Fatalf("insert: %v", err)
	}
}

// driveLoad builds a representative persistent state: a table, two
// surviving producers with tuples, a closed producer, a surviving
// latest consumer and a closed one.
func driveLoad(t *testing.T, c *rgmacore.Core) (p1, p2 int64) {
	t.Helper()
	if _, err := c.CreateTable(tableSQL); err != nil {
		t.Fatalf("create table: %v", err)
	}
	pa, err := c.CreateProducer("generator", 0, 0)
	if err != nil {
		t.Fatalf("create producer: %v", err)
	}
	pb, err := c.CreateProducer("generator", 5*sim.Second, 10*sim.Second)
	if err != nil {
		t.Fatalf("create producer: %v", err)
	}
	dead, err := c.CreateProducer("generator", 0, 0)
	if err != nil {
		t.Fatalf("create producer: %v", err)
	}
	insert(t, c, pa.ID(), 1, 480.5, "aberdeen")
	insert(t, c, pa.ID(), 2, 0.25, "glasgow")
	insert(t, c, pb.ID(), 3, 13.25, "dundee")
	insert(t, c, dead.ID(), 9, 1, "gone")
	if err := c.CloseProducer(dead.ID()); err != nil {
		t.Fatalf("close producer: %v", err)
	}
	cn, err := c.CreateConsumer("SELECT * FROM generator WHERE power > 0.5", rgma.LatestQuery, nil)
	if err != nil {
		t.Fatalf("create consumer: %v", err)
	}
	_ = cn
	deadCn, err := c.CreateConsumer("SELECT * FROM generator", rgma.ContinuousQuery, nil)
	if err != nil {
		t.Fatalf("create consumer: %v", err)
	}
	if err := c.CloseConsumer(deadCn.ID()); err != nil {
		t.Fatalf("close consumer: %v", err)
	}
	return pa.ID(), pb.ID()
}

func wantLoadState(t *testing.T, c *rgmacore.Core, p1, p2 int64) {
	t.Helper()
	st := c.DumpPersistent()
	if len(st.Tables) != 1 {
		t.Fatalf("tables = %v, want the generator schema", st.Tables)
	}
	if len(st.Producers) != 2 || st.Producers[0].ID != p1 || st.Producers[1].ID != p2 {
		t.Fatalf("producers = %+v, want ids %d, %d", st.Producers, p1, p2)
	}
	if n := len(st.Producers[0].Tuples); n != 2 {
		t.Errorf("producer %d has %d tuples, want 2", p1, n)
	}
	if n := len(st.Producers[1].Tuples); n != 1 {
		t.Errorf("producer %d has %d tuples, want 1", p2, n)
	}
	if st.Producers[1].LatestRetention != 5*sim.Second || st.Producers[1].HistoryRetention != 10*sim.Second {
		t.Errorf("producer %d retentions = %v/%v, want 5s/10s",
			p2, st.Producers[1].LatestRetention, st.Producers[1].HistoryRetention)
	}
	if len(st.Consumers) != 1 || st.Consumers[0].Type != rgma.LatestQuery {
		t.Fatalf("consumers = %+v, want one latest consumer", st.Consumers)
	}
}

func TestReplayEquivalence(t *testing.T) {
	fsys := walfs.NewMem()
	c := newCore()
	p, info, err := rgmawal.Open(fsys, wal.Options{}, c)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info.Records != 0 {
		t.Fatalf("fresh open replayed %d records", info.Records)
	}
	p1, p2 := driveLoad(t, c)
	wantLoadState(t, c, p1, p2)
	want := c.DumpPersistent()
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2 := newCore()
	p2nd, info, err := rgmawal.Open(fsys, wal.Options{}, c2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2nd.Close()
	if info.Records == 0 {
		t.Fatal("reopen replayed nothing")
	}
	wantLoadState(t, c2, p1, p2)
	if got := c2.DumpPersistent(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs:\ngot:  %+v\nwant: %+v", got, want)
	}
}

func TestCleanShutdownRoundtrip(t *testing.T) {
	fsys := walfs.NewMem()
	c := newCore()
	p, _, err := rgmawal.Open(fsys, wal.Options{}, c)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	p1, p2 := driveLoad(t, c)
	want := c.DumpPersistent()
	if err := p.CloseClean(); err != nil {
		t.Fatalf("close clean: %v", err)
	}

	c2 := newCore()
	p2nd, info, err := rgmawal.Open(fsys, wal.Options{}, c2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2nd.Close()
	if !info.CleanStart {
		t.Error("reopen after CloseClean should be a clean start")
	}
	wantLoadState(t, c2, p1, p2)
	if got := c2.DumpPersistent(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestRecoveredQueriesServe checks a recovered core actually answers:
// latest/history queries see replayed tuples (the clock continued past
// their insertion instants instead of rewinding under them), replayed
// continuous consumers receive post-recovery inserts, and new resource
// ids do not collide with replayed ones.
func TestRecoveredQueriesServe(t *testing.T) {
	fsys := walfs.NewMem()
	c := newCore()
	p, _, err := rgmawal.Open(fsys, wal.Options{}, c)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.CreateTable(tableSQL); err != nil {
		t.Fatal(err)
	}
	prod, err := c.CreateProducer("generator", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := c.CreateConsumer("SELECT * FROM generator", rgma.ContinuousQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	insert(t, c, prod.ID(), 1, 480.5, "aberdeen")
	maxID := cont.ID()
	if prod.ID() > maxID {
		maxID = prod.ID()
	}
	_ = p.Close()

	c2 := newCore()
	p2, _, err := rgmawal.Open(fsys, wal.Options{}, c2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()

	// Latest query over the replayed store: the tuple must still be
	// within its 30 s latest retention from the recovered clock.
	latest, err := c2.CreateConsumer("SELECT * FROM generator", rgma.LatestQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID() <= maxID {
		t.Errorf("new consumer id %d not past replayed ids (max %d)", latest.ID(), maxID)
	}
	tuples, err := c2.Pop(latest.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0].Row[0] != "1" {
		t.Fatalf("latest pop = %+v, want the replayed genid-1 tuple", tuples)
	}

	// The replayed continuous consumer starts empty (buffered tuples are
	// not durable) but receives new inserts.
	got, err := c2.Pop(cont.ID())
	if err != nil {
		t.Fatalf("replayed continuous consumer gone: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("replayed continuous consumer popped %+v, want empty", got)
	}
	insert(t, c2, prod.ID(), 2, 1.5, "glasgow")
	got, err = c2.Pop(cont.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Row[0] != "2" {
		t.Fatalf("continuous pop after recovery = %+v, want the new tuple", got)
	}
}

// TestCrashPointPrefix sweeps injected I/O failures over a fixed insert
// load and asserts the recovered store is always a prefix of the
// inserted sequence.
func TestCrashPointPrefix(t *testing.T) {
	const inserts = 6
	drive := func(c *rgmacore.Core) int64 {
		if _, err := c.CreateTable(tableSQL); err != nil {
			return -1
		}
		prod, err := c.CreateProducer("generator", 0, 0)
		if err != nil {
			return -1
		}
		for i := 0; i < inserts; i++ {
			_ = c.Insert(prod.ID(), fmt.Sprintf("INSERT INTO generator VALUES (%d, 1.5, 'site')", i))
		}
		return prod.ID()
	}

	probe := walfs.NewFault(walfs.NewMem(), 1<<30, 0)
	{
		c := newCore()
		p, _, err := rgmawal.Open(probe, wal.Options{Fsync: true, SegmentBytes: 512}, c)
		if err != nil {
			t.Fatalf("probe open: %v", err)
		}
		drive(c)
		_ = p.Close()
	}
	totalOps := probe.Ops()
	if totalOps < inserts {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for failAt := 1; failAt <= totalOps; failAt++ {
		mem := walfs.NewMem()
		fault := walfs.NewFault(mem, failAt, 2)
		c := newCore()
		p, _, err := rgmawal.Open(fault, wal.Options{Fsync: true, SegmentBytes: 512}, c)
		if err != nil {
			continue
		}
		drive(c)
		_ = p.Close()
		mem.Crash()

		c2 := newCore()
		p2, _, err := rgmawal.Open(mem, wal.Options{Fsync: true, SegmentBytes: 512}, c2)
		if err != nil {
			t.Fatalf("failAt=%d: recovery failed: %v", failAt, err)
		}
		st := c2.DumpPersistent()
		if len(st.Producers) > 1 {
			t.Fatalf("failAt=%d: %d producers, want ≤1", failAt, len(st.Producers))
		}
		if len(st.Producers) == 1 {
			for i, tup := range st.Producers[0].Tuples {
				if got, want := tup.Row[0].String(), fmt.Sprint(i); got != want {
					t.Fatalf("failAt=%d: tuple[%d] genid = %s, want %s (prefix violated)", failAt, i, got, want)
				}
			}
		}
		_ = p2.Close()
	}
}

// TestJournalZeroAlloc pins the insert journal callback at zero
// allocations, pooled encode buffer included.
func TestJournalZeroAlloc(t *testing.T) {
	p, _, err := rgmawal.Open(walfs.NewMem(), wal.Options{}, newCore())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer p.Close()
	sql := "INSERT INTO generator VALUES (1, 480.5, 'aberdeen')"
	if allocs := testing.AllocsPerRun(200, func() { p.Inserted(1, 42, sql) }); allocs != 0 {
		t.Errorf("Inserted allocates %v times, want 0", allocs)
	}
}
