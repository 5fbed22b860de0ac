package rgmahttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridmon/internal/rgmacore"
	"gridmon/internal/wire"
)

// TestHTTPCreateTableRecreate pins the transport-level contract of the
// table re-create fix: declaring an identical schema again returns 200
// and leaves existing streams intact; a conflicting schema returns 409.
// Pre-fix, the second create returned 200 but silently replaced the
// schema object, and the consumer below never received the insert.
func TestHTTPCreateTableRecreate(t *testing.T) {
	_, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	cons, err := c.CreateConsumer("SELECT * FROM generator", "continuous")
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-create (a second client declaring defensively).
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatalf("identical re-create rejected: %v", err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert("INSERT INTO generator (genid, seq, power, site) VALUES (1, 1, 480.5, 'aberdeen')"); err != nil {
		t.Fatal(err)
	}
	tuples, err := cons.Pop()
	if err != nil || len(tuples) != 1 {
		t.Fatalf("stream across re-create: popped %v, %v; want 1 tuple", tuples, err)
	}
	// Conflicting schema: 409.
	err = c.CreateTable("CREATE TABLE generator (genid INTEGER PRIMARY KEY)")
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("conflicting re-create: err = %v, want 409", err)
	}
}

// TestHTTPStatsTuplesDropped: the consumer buffer cap surfaces its drop
// counter in /stats.
func TestHTTPStatsTuplesDropped(t *testing.T) {
	_, c := startServerWith(t, rgmacore.Config{MaxBuffered: 5})
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
	for i := 1; i <= 12; i++ {
		stmt := fmt.Sprintf("INSERT INTO generator (genid, seq, power, site) VALUES (%d, 1, 1.0, 'a')", i)
		if err := p.Insert(stmt); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesDropped != 7 {
		t.Fatalf("stats tuplesDropped = %d, want 7 (12 inserts, cap 5)", st.TuplesDropped)
	}
	if got, _ := cons.Pop(); len(got) != 5 || got[0].Row[0] != "8" {
		t.Fatalf("capped pop = %v, want the newest 5", got)
	}
}

// TestClientRetentionRounding is the regression test for the silent
// retention truncation: a sub-second retention must reach the server as
// ≥1 second (pre-fix int(d.Seconds()) sent 0 and the server silently
// substituted its 30 s/60 s defaults), and non-positive retention must
// be rejected client-side without a request.
func TestClientRetentionRounding(t *testing.T) {
	type createReq struct {
		LatestRetentionSec  int `json:"latestRetentionSec"`
		HistoryRetentionSec int `json:"historyRetentionSec"`
	}
	var got createReq
	calls := 0
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		_ = json.NewDecoder(r.Body).Decode(&got)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"producer": 1}`))
	}))
	defer h.Close()
	c := NewClient(strings.TrimPrefix(h.URL, "http://"))

	if _, err := c.CreatePrimaryProducer("generator", 500*time.Millisecond, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got.LatestRetentionSec != 1 || got.HistoryRetentionSec != 2 {
		t.Fatalf("sub-second retention reached the server as %+v, want 1/2 (rounded up)", got)
	}

	if _, err := c.CreatePrimaryProducer("generator", 0, time.Minute); err == nil {
		t.Fatal("zero retention accepted")
	}
	if _, err := c.CreatePrimaryProducer("generator", time.Minute, -time.Second); err == nil {
		t.Fatal("negative retention accepted")
	}
	if calls != 1 {
		t.Fatalf("invalid retention still sent %d extra requests", calls-1)
	}
}

// TestHTTPOversizedBodyRejected: a request body longer than
// wire.MaxFrameSize, the binary port's frame cap, is answered 413
// without reaching the core, and the server keeps serving.
func TestHTTPOversizedBodyRejected(t *testing.T) {
	s, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	before := s.StatsSnapshot()

	body := fmt.Sprintf(`{"producer":%d,"sql":"INSERT INTO generator (genid, seq, power, site) VALUES (1, 1, 1.0, '%s')"}`,
		p.ID, strings.Repeat("x", wire.MaxFrameSize))
	resp, err := c.http.Post(c.base+"/producer/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if after := s.StatsSnapshot(); after != before {
		t.Fatalf("oversized body changed the core's counters: %+v, want %+v", after, before)
	}

	if err := p.Insert("INSERT INTO generator (genid, seq, power, site) VALUES (2, 1, 1.0, 'a')"); err != nil {
		t.Fatalf("insert after the oversized body: %v", err)
	}
	if got := s.StatsSnapshot().Inserts; got != before.Inserts+1 {
		t.Fatalf("inserts = %d, want %d", got, before.Inserts+1)
	}
}
