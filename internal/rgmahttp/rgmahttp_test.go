package rgmahttp

import (
	"strings"
	"testing"
	"time"

	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/sqlmini"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	return startServerWith(t, rgmacore.Config{})
}

const createSQL = `CREATE TABLE generator (
	genid INTEGER PRIMARY KEY, seq INTEGER,
	power DOUBLE PRECISION, site CHAR(20))`

func TestHTTPCreateInsertPop(t *testing.T) {
	_, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	cons, err := c.CreateConsumer("SELECT * FROM generator WHERE genid < 10", "continuous")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert("INSERT INTO generator (genid, seq, power, site) VALUES (1, 1, 480.5, 'aberdeen')"); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert("INSERT INTO generator (genid, seq, power, site) VALUES (99, 1, 1.0, 'filtered')"); err != nil {
		t.Fatal(err)
	}
	tuples, err := cons.Pop()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("popped %d tuples, want 1 (WHERE filter)", len(tuples))
	}
	if tuples[0].Row[0] != "1" || !strings.Contains(tuples[0].Row[3], "aberdeen") {
		t.Fatalf("tuple = %v", tuples[0])
	}
	// Buffer drained: second pop is empty.
	tuples, err = cons.Pop()
	if err != nil || len(tuples) != 0 {
		t.Fatalf("second pop: %v, %v", tuples, err)
	}
}

func TestHTTPLatestAndHistory(t *testing.T) {
	_, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tab := tableFor(t)
	for seq := 1; seq <= 3; seq++ {
		row := sqlmini.Row{sqlmini.IntV(1), sqlmini.IntV(int64(seq)), sqlmini.FloatV(480), sqlmini.StringV("a")}
		if err := p.InsertRow(tab, row); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := c.CreateConsumer("SELECT * FROM generator", "latest")
	if err != nil {
		t.Fatal(err)
	}
	got, err := latest.Pop()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Row[1] != "3" {
		t.Fatalf("latest pop = %v", got)
	}
	history, err := c.CreateConsumer("SELECT * FROM generator", "history")
	if err != nil {
		t.Fatal(err)
	}
	hgot, err := history.Pop()
	if err != nil || len(hgot) != 3 {
		t.Fatalf("history pop = %v, %v", hgot, err)
	}
}

func tableFor(t *testing.T) *sqlmini.Table {
	t.Helper()
	st, err := sqlmini.Parse(createSQL)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(sqlmini.CreateTable)
	return &ct.Table
}

// TestHTTPRegistryCounts: /stats counts the registered producers and
// consumers.
func TestHTTPRegistryCounts(t *testing.T) {
	_, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateConsumer("SELECT * FROM generator", "continuous"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil || st.Producers != 1 || st.Consumers != 1 {
		t.Fatalf("registry = %d/%d, %v", st.Producers, st.Consumers, err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ = c.Stats(); st.Producers != 0 {
		t.Fatalf("producers after close = %d", st.Producers)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, c := startServer(t)
	// Unknown table.
	if _, err := c.CreatePrimaryProducer("nope", time.Second, time.Second); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := c.CreateConsumer("SELECT * FROM nope", "continuous"); err == nil {
		t.Fatal("consumer on unknown table accepted")
	}
	// Bad SQL.
	if err := c.CreateTable("DROP TABLE x"); err == nil {
		t.Fatal("non-CREATE accepted")
	}
	if err := c.CreateTable("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := c.CreateConsumer("SELECT FROM", "continuous"); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := c.CreateConsumer("SELECT * FROM generator", "sideways"); err == nil {
		t.Fatal("bad query type accepted")
	}
	// Unknown resources.
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	p := &RemoteProducer{c: c, ID: 999}
	if err := p.Insert("INSERT INTO generator (genid) VALUES (1)"); err == nil {
		t.Fatal("insert on missing producer accepted")
	}
	rc := &RemoteConsumer{c: c, ID: 999}
	if _, err := rc.Pop(); err == nil {
		t.Fatal("pop on missing consumer accepted")
	}
	if err := rc.Close(); err == nil {
		t.Fatal("close on missing consumer accepted")
	}
	// Type-checked insert.
	p2, err := c.CreatePrimaryProducer("generator", time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Insert("INSERT INTO generator (genid) VALUES ('not-an-int')"); err == nil {
		t.Fatal("ill-typed insert accepted")
	}
}

func TestHTTPPollLoopLikePaper(t *testing.T) {
	// The paper's subscriber polls every 100 ms; verify a poll loop sees
	// tuples inserted while it runs.
	_, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	cons, err := c.CreateConsumer("SELECT * FROM generator", "continuous")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tab := tableFor(t)
	done := make(chan int)
	go func() {
		total := 0
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && total < 5 {
			tuples, err := cons.Pop()
			if err != nil {
				break
			}
			total += len(tuples)
			time.Sleep(20 * time.Millisecond)
		}
		done <- total
	}()
	for seq := 1; seq <= 5; seq++ {
		row := sqlmini.Row{sqlmini.IntV(int64(seq)), sqlmini.IntV(1), sqlmini.FloatV(1), sqlmini.StringV("s")}
		if err := p.InsertRow(tab, row); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := <-done; got != 5 {
		t.Fatalf("poll loop saw %d of 5 tuples", got)
	}
}

func TestHTTPReusesSimValidatedComponents(t *testing.T) {
	// The HTTP binding serves the same schema the simulator uses.
	s, c := startServer(t)
	_ = s
	tab := rgma.MonitoringTable()
	if err := c.CreateTable(tableToSQL(tab)); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InsertRow(tab, rgma.MonitoringRow(7, 1)); err != nil {
		t.Fatal(err)
	}
	cons, err := c.CreateConsumer("SELECT * FROM generator WHERE genid = 7", "history")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cons.Pop()
	if err != nil || len(got) != 1 {
		t.Fatalf("pop = %v, %v", got, err)
	}
}

// tableToSQL renders a schema back to CREATE TABLE (test helper).
func tableToSQL(t *sqlmini.Table) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE " + t.Name + " (")
	for i, col := range t.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(col.Name + " ")
		switch col.Type {
		case sqlmini.TInteger:
			sb.WriteString("INTEGER")
		case sqlmini.TReal:
			sb.WriteString("REAL")
		case sqlmini.TDouble:
			sb.WriteString("DOUBLE PRECISION")
		case sqlmini.TChar:
			sb.WriteString("CHAR(" + itoa(col.Len) + ")")
		case sqlmini.TVarchar:
			sb.WriteString("VARCHAR(" + itoa(col.Len) + ")")
		}
		if col.Primary {
			sb.WriteString(" PRIMARY KEY")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
