package rgmahttp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gridmon/internal/rgmacore"
	"gridmon/internal/sqlmini"
)

func startServerWith(t *testing.T, cfg rgmacore.Config) (*Server, *Client) {
	t.Helper()
	s := NewServer(rgmacore.New(cfg), Config{})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, NewClient(addr)
}

// TestHTTPConcurrentInsertPopStress is the acceptance stress: parallel
// producers insert while consumers pop concurrently across 8 tables,
// over real HTTP. Every matching tuple must reach the
// continuous consumer exactly once, with the race detector watching the
// whole service stack.
func TestHTTPConcurrentInsertPopStress(t *testing.T) {
	s, c := startServerWith(t, rgmacore.Config{})
	const nTables = 8
	const insertsPerTable = 120
	var tables []string
	for i := 0; i < nTables; i++ {
		tab := fmt.Sprintf("stress%d", i)
		tables = append(tables, tab)
		if err := c.CreateTable(fmt.Sprintf(
			"CREATE TABLE %s (id INTEGER PRIMARY KEY, seq INTEGER, load DOUBLE PRECISION)", tab)); err != nil {
			t.Fatal(err)
		}
	}

	type lane struct {
		prod    *RemoteProducer
		cont    *RemoteConsumer
		hist    *RemoteConsumer
		schema  *sqlmini.Table
		got     int
		dropped int // tuples filtered by the WHERE predicate
	}
	lanes := make([]*lane, nTables)
	for i, tab := range tables {
		p, err := c.CreatePrimaryProducer(tab, 30*time.Second, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// Half the lanes filter: only even ids pass the predicate.
		where := ""
		if i%2 == 0 {
			where = " WHERE id < 60"
		}
		cont, err := c.CreateConsumer("SELECT * FROM "+tab+where, "continuous")
		if err != nil {
			t.Fatal(err)
		}
		hist, err := c.CreateConsumer("SELECT * FROM "+tab, "history")
		if err != nil {
			t.Fatal(err)
		}
		st, err := sqlmini.Parse(fmt.Sprintf("CREATE TABLE %s (id INTEGER PRIMARY KEY, seq INTEGER, load DOUBLE PRECISION)", tab))
		if err != nil {
			t.Fatal(err)
		}
		ct := st.(sqlmini.CreateTable)
		lanes[i] = &lane{prod: p, cont: cont, hist: hist, schema: &ct.Table}
	}

	var wg sync.WaitGroup
	errc := make(chan error, nTables*3)
	for i, ln := range lanes {
		filtered := i%2 == 0
		// Inserter: ids 0..119; under "id < 60" half are filtered out.
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for seq := 0; seq < insertsPerTable; seq++ {
				row := sqlmini.Row{sqlmini.IntV(int64(seq)), sqlmini.IntV(int64(seq)), sqlmini.FloatV(1.5)}
				if err := ln.prod.InsertRow(ln.schema, row); err != nil {
					errc <- err
					return
				}
			}
		}(ln)
		if filtered {
			ln.dropped = insertsPerTable - 60
		}
		// Concurrent popper on the continuous consumer.
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			deadline := time.Now().Add(20 * time.Second)
			want := insertsPerTable - ln.dropped
			for ln.got < want && time.Now().Before(deadline) {
				tuples, err := ln.cont.Pop()
				if err != nil {
					errc <- err
					return
				}
				ln.got += len(tuples)
			}
		}(ln)
		// Concurrent history popper (gather path under churn).
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				if _, err := ln.hist.Pop(); err != nil {
					errc <- err
					return
				}
			}
		}(ln)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, ln := range lanes {
		want := insertsPerTable - ln.dropped
		if ln.got != want {
			t.Errorf("lane %d: continuous consumer got %d of %d tuples", i, ln.got, want)
		}
	}
	st := s.StatsSnapshot()
	if st.Inserts != nTables*insertsPerTable {
		t.Errorf("server inserts = %d, want %d", st.Inserts, nTables*insertsPerTable)
	}
	wantStreamed := uint64(0)
	for _, ln := range lanes {
		wantStreamed += uint64(insertsPerTable - ln.dropped)
	}
	if st.TuplesStreamed != wantStreamed {
		t.Errorf("tuplesStreamed = %d, want %d", st.TuplesStreamed, wantStreamed)
	}
}

// TestHTTPStatsAndClose exercises the stats endpoint and consumer-close
// registry bookkeeping (the seed leaked consumer registrations).
func TestHTTPStatsAndClose(t *testing.T) {
	_, c := startServerWith(t, rgmacore.Config{})
	if err := c.CreateTable("CREATE TABLE g (id INTEGER PRIMARY KEY, v DOUBLE PRECISION)"); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("g", time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := c.CreateConsumer("SELECT * FROM g", "continuous")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert("INSERT INTO g (id, v) VALUES (1, 2.5)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Producers != 1 || st.Consumers != 1 || st.Inserts != 1 || st.TuplesStreamed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := cons.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Producers != 0 || st.Consumers != 0 {
		t.Fatalf("registry after close = %d/%d, want 0/0", st.Producers, st.Consumers)
	}
	// A closed continuous consumer no longer receives streams: recreate
	// a producer and insert; nothing must panic and stats stay sane.
	p2, err := c.CreatePrimaryProducer("g", time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Insert("INSERT INTO g (id, v) VALUES (2, 1.0)"); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Stats()
	if st.TuplesStreamed != 1 {
		t.Fatalf("closed consumer still streamed to: %+v", st)
	}
}
