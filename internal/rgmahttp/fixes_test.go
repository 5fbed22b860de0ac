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
	"gridmon/internal/wal"
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

// TestHTTPRetentionOutOfRange: retention is whole seconds that fit the
// binary protocol's uint32, so a negative value or one that would wrap
// the server's clock (18446744074 s once became a 290 ms retention) is
// answered 400 and creates no producer; 0 or an omitted field still
// selects the defaults.
func TestHTTPRetentionOutOfRange(t *testing.T) {
	s, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body    string
		status  int
		created int
	}{
		{`{"table":"generator","latestRetentionSec":18446744074}`, http.StatusBadRequest, 0},
		{`{"table":"generator","historyRetentionSec":18446744074}`, http.StatusBadRequest, 0},
		{`{"table":"generator","latestRetentionSec":-1}`, http.StatusBadRequest, 0},
		{`{"table":"generator","historyRetentionSec":-1}`, http.StatusBadRequest, 0},
		{`{"table":"generator","latestRetentionSec":4294967296}`, http.StatusBadRequest, 0},
		{`{"table":"generator","latestRetentionSec":0,"historyRetentionSec":0}`, http.StatusOK, 1},
		{`{"table":"generator"}`, http.StatusOK, 1},
	} {
		before := s.StatsSnapshot().Producers
		resp, err := c.http.Post(c.base+"/producer/create", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
		if created := s.StatsSnapshot().Producers - before; created != tc.created {
			t.Errorf("%s: %d producers created, want %d", tc.body, created, tc.created)
		}
	}
}

// getStatsDoc fetches GET /stats as raw JSON values by key.
func getStatsDoc(t *testing.T, c *Client) map[string]json.RawMessage {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := c.get("/stats", &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// requireJSON fails unless got holds exactly the keys of want, each
// with want's value in its JSON form.
func requireJSON(t *testing.T, what string, got map[string]json.RawMessage, want map[string]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s has %d keys, want %d: %v", what, len(got), len(want), got)
	}
	for k, v := range want {
		wv, _ := json.Marshal(v)
		if string(got[k]) != string(wv) {
			t.Errorf("%s.%s = %s, want %s", what, k, got[k], wv)
		}
	}
}

// object decodes one JSON object of a /stats document.
func object(t *testing.T, raw json.RawMessage) map[string]json.RawMessage {
	t.Helper()
	var o map[string]json.RawMessage
	if err := json.Unmarshal(raw, &o); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	return o
}

// TestHTTPStatsDocument pins GET /stats: the nine core counters under
// their keys with the core's values, and "wal" and "bin_egress" only
// once cmd/rgmad attaches their sources, carrying the values forwarded.
func TestHTTPStatsDocument(t *testing.T) {
	s, c := startServer(t)
	if err := c.CreateTable(createSQL); err != nil {
		t.Fatal(err)
	}
	cons, err := c.CreateConsumer("SELECT * FROM generator WHERE genid < 2", "continuous")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateConsumer("SELECT * FROM generator WHERE site = 'nowhere'", "continuous"); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("generator", 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := p.Insert(fmt.Sprintf("INSERT INTO generator (genid, seq, power, site) VALUES (%d, 1, 1.0, 'a')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cons.Pop(); err != nil {
		t.Fatal(err)
	}

	doc := getStatsDoc(t, c)
	cs := s.core.StatsSnapshot()
	core := map[string]any{
		"producers": cs.Producers, "consumers": cs.Consumers,
		"inserts": cs.Inserts, "pops": cs.Pops,
		"tuplesStreamed": cs.TuplesStreamed, "tuplesPopped": cs.TuplesPopped,
		"tuplesDropped":     cs.TuplesDropped,
		"matchProgramEvals": cs.MatchProgramEvals, "matchConsumersSkipped": cs.MatchConsumersSkipped,
	}
	if cs.Inserts != 3 || cs.Pops != 1 || cs.TuplesPopped != 1 || cs.MatchProgramEvals == 0 {
		t.Fatalf("core counters %+v, want 3 inserts, 1 pop of 1 tuple and WHERE evaluations", cs)
	}
	requireJSON(t, "/stats", doc, core)

	s.SetWALStats(func() wal.Stats {
		return wal.Stats{RecordsAppended: 7, BytesLogged: 123, Fsyncs: 2, Snapshots: 1,
			ReplayRecords: 4, ReplayTruncatedTail: 9, CleanStart: true}
	})
	s.SetBinEgress(func() wire.EgressStats {
		return wire.EgressStats{WriterFlushes: 5, WriterFrames: 20, MergedPushes: 3,
			SlowConsumerDrops: 1, FramesPerFlush: 4}
	})
	doc = getStatsDoc(t, c)
	requireJSON(t, "/stats.wal", object(t, doc["wal"]), map[string]any{
		"records_appended": 7, "bytes_logged": 123, "fsyncs": 2, "snapshots": 1,
		"replay_records": 4, "replay_truncated_tail": 9, "clean_start": true,
	})
	requireJSON(t, "/stats.bin_egress", object(t, doc["bin_egress"]), map[string]any{
		"writer_flushes": 5, "writer_frames": 20, "merged_pushes": 3,
		"slow_consumer_drops": 1, "frames_per_flush": 4,
	})
	delete(doc, "wal")
	delete(doc, "bin_egress")
	requireJSON(t, "/stats", doc, core)
}
