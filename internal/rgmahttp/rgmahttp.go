// Package rgmahttp serves the R-GMA virtual database over real HTTP, the
// transport the original gLite implementation used (Java servlets on
// Tomcat). It is a thin JSON binding over the transport-neutral
// rgmacore.Core — the same core internal/rgmabin drives over persistent
// binary connections — and reuses the registry, tuple-store and SQL
// components the simulator validates: producers POST SQL INSERT
// statements, consumers create continuous/latest/history queries and
// poll with GET, exactly like the paper's subscriber polling its
// consumer every 100 ms.
//
// # Concurrency
//
// All shared state lives in the core, which is sharded the way the
// broker core is (lock domains, not worker goroutines), so request
// handling runs on the HTTP server's connection goroutines and scales
// with them; see the rgmacore package comment for the lock families and
// the ordering contract. Consumer WHERE predicates are compiled once at
// create time (sqlmini.Program) and evaluated on the insert fast path.
//
// Endpoints (all JSON):
//
//	POST /schema/createTable   {"sql": "CREATE TABLE ..."}
//	POST /producer/create      {"table": "...", "latestRetentionSec": 30, "historyRetentionSec": 60}
//	POST /producer/insert      {"producer": 1, "sql": "INSERT INTO ..."}
//	POST /producer/close       {"producer": 1}
//	POST /consumer/create      {"query": "SELECT ...", "type": "continuous|latest|history"}
//	GET  /consumer/pop?id=1
//	POST /consumer/close       {"consumer": 1}
//	GET  /registry
//	GET  /stats
package rgmahttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"gridmon/internal/rgmacore"
	"gridmon/internal/sim"
	"gridmon/internal/wal"
	"gridmon/internal/wire"
)

// Config tunes the server.
type Config struct {
	// Shards is the lock-domain count for the core's table and resource
	// shard families (0 = GOMAXPROCS). Shard counts do not change
	// behaviour, only contention.
	Shards int
	// MaxBuffered caps each continuous consumer's undrained tuples
	// (0 = rgmacore.DefaultMaxBuffered, negative = unlimited).
	MaxBuffered int
	// Pprof mounts net/http/pprof's handlers under /debug/pprof/ on the
	// server's mux (cmd/rgmad -pprof). Combined with
	// runtime.SetMutexProfileFraction this is how lock contention is
	// measured on a live daemon.
	Pprof bool
}

// Server is an R-GMA service over HTTP.
type Server struct {
	cfg  Config
	core *rgmacore.Core

	http *http.Server
	ln   net.Listener

	walStats  atomic.Pointer[func() wal.Stats]
	binEgress atomic.Pointer[func() wire.EgressStats]
}

// NewServer constructs an unstarted server with the default sharded
// configuration.
func NewServer() *Server { return NewServerWith(Config{}) }

// NewServerWith constructs an unstarted server with an explicit
// configuration.
func NewServerWith(cfg Config) *Server {
	return &Server{
		cfg:  cfg,
		core: rgmacore.New(rgmacore.Config{Shards: cfg.Shards, MaxBuffered: cfg.MaxBuffered}),
	}
}

// Core exposes the transport-neutral service core, so a second binding
// (cmd/rgmad serves rgmabin on another port) can share this server's
// tables and resources.
func (s *Server) Core() *rgmacore.Core { return s.core }

// NumShards reports the core's lock-domain count per shard family.
func (s *Server) NumShards() int { return s.core.NumShards() }

// TableShardOf reports which table shard a name routes to. Load-test
// topologies and benchmarks use it to spread (or concentrate) tables
// across lock domains, as broker.ShardOf does for destinations.
func (s *Server) TableShardOf(name string) int { return s.core.TableShardOf(name) }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /schema/createTable", s.handleCreateTable)
	mux.HandleFunc("POST /producer/create", s.handleProducerCreate)
	mux.HandleFunc("POST /producer/insert", s.handleInsert)
	mux.HandleFunc("POST /producer/close", s.handleProducerClose)
	mux.HandleFunc("POST /consumer/create", s.handleConsumerCreate)
	mux.HandleFunc("GET /consumer/pop", s.handlePop)
	mux.HandleFunc("POST /consumer/close", s.handleConsumerClose)
	mux.HandleFunc("GET /registry", s.handleRegistry)
	mux.HandleFunc("GET /stats", s.handleStats)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ListenAndServe starts serving on addr and returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	go func() { _ = s.http.Serve(ln) }()
	return ln.Addr().String(), nil
}

// closeGrace bounds how long Close waits for in-flight handlers.
const closeGrace = 5 * time.Second

// Close stops the server. It returns once every in-flight handler has
// finished, so the core is quiescent and a persister may dump it at
// once. A handler still running after closeGrace (a pprof profile, a
// client that stopped reading its response) has its connection closed
// under it, and Close reports the timeout.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// statusFor maps core error kinds onto HTTP statuses; anything the core
// rejects without a kind is a bad request.
func statusFor(err error) int {
	switch {
	case errors.Is(err, rgmacore.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, rgmacore.ErrConflict):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeCoreErr(w http.ResponseWriter, err error) {
	writeErr(w, statusFor(err), err)
}

func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("rgmahttp: bad request body: %w", err))
		return v, false
	}
	return v, true
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[struct {
		SQL string `json:"sql"`
	}](w, r)
	if !ok {
		return
	}
	name, err := s.core.CreateTable(req.SQL)
	if err != nil {
		writeCoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"table": name})
}

func (s *Server) handleProducerCreate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[struct {
		Table               string `json:"table"`
		LatestRetentionSec  int    `json:"latestRetentionSec"`
		HistoryRetentionSec int    `json:"historyRetentionSec"`
	}](w, r)
	if !ok {
		return
	}
	p, err := s.core.CreateProducer(req.Table,
		sim.Time(req.LatestRetentionSec)*sim.Second,
		sim.Time(req.HistoryRetentionSec)*sim.Second)
	if err != nil {
		writeCoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"producer": p.ID()})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[struct {
		Producer int64  `json:"producer"`
		SQL      string `json:"sql"`
	}](w, r)
	if !ok {
		return
	}
	if err := s.core.Insert(req.Producer, req.SQL); err != nil {
		writeCoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
}

func (s *Server) handleProducerClose(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[struct {
		Producer int64 `json:"producer"`
	}](w, r)
	if !ok {
		return
	}
	if err := s.core.CloseProducer(req.Producer); err != nil {
		writeCoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleConsumerCreate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[struct {
		Query string `json:"query"`
		Type  string `json:"type"`
	}](w, r)
	if !ok {
		return
	}
	qtype, err := rgmacore.ParseQueryType(req.Type)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	c, err := s.core.CreateConsumer(req.Query, qtype, nil)
	if err != nil {
		writeCoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"consumer": c.ID()})
}

func (s *Server) handlePop(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("rgmahttp: bad consumer id"))
		return
	}
	out, err := s.core.Pop(id)
	if err != nil {
		writeCoreErr(w, err)
		return
	}
	if out == nil {
		out = []rgmacore.PopTuple{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tuples": out})
}

func (s *Server) handleConsumerClose(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[struct {
		Consumer int64 `json:"consumer"`
	}](w, r)
	if !ok {
		return
	}
	if err := s.core.CloseConsumer(req.Consumer); err != nil {
		writeCoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	p, c := s.core.RegistryCounts()
	writeJSON(w, http.StatusOK, map[string]int{"producers": p, "consumers": c})
}

// Stats is the server's counter snapshot.
type Stats struct {
	Producers      int    `json:"producers"`
	Consumers      int    `json:"consumers"`
	Inserts        uint64 `json:"inserts"`
	Pops           uint64 `json:"pops"`
	TuplesStreamed uint64 `json:"tuplesStreamed"`
	TuplesPopped   uint64 `json:"tuplesPopped"`
	TuplesDropped  uint64 `json:"tuplesDropped"`
	Shards         int    `json:"shards"`

	// WAL is present only when the server persists to a write-ahead
	// log (cmd/rgmad -data-dir).
	WAL *wal.Stats `json:"wal,omitempty"`

	// BinEgress is present only when a binary push transport shares the
	// core (cmd/rgmad -listen-bin): its writer-side egress batching.
	BinEgress *wire.EgressStats `json:"bin_egress,omitempty"`
}

// SetBinEgress installs the binary transport's egress counter source
// reported under "bin_egress" in /stats. Pass nil to detach.
func (s *Server) SetBinEgress(f func() wire.EgressStats) {
	if f == nil {
		s.binEgress.Store(nil)
		return
	}
	s.binEgress.Store(&f)
}

// SetWALStats installs the write-ahead-log counter source reported
// under "wal" in /stats. Pass nil to detach.
func (s *Server) SetWALStats(f func() wal.Stats) {
	if f == nil {
		s.walStats.Store(nil)
		return
	}
	s.walStats.Store(&f)
}

// StatsSnapshot reads the core counters; safe from any goroutine.
func (s *Server) StatsSnapshot() Stats {
	cs := s.core.StatsSnapshot()
	st := Stats{
		Producers:      cs.Producers,
		Consumers:      cs.Consumers,
		Inserts:        cs.Inserts,
		Pops:           cs.Pops,
		TuplesStreamed: cs.TuplesStreamed,
		TuplesPopped:   cs.TuplesPopped,
		TuplesDropped:  cs.TuplesDropped,
		Shards:         s.core.NumShards(),
	}
	if f := s.walStats.Load(); f != nil {
		ws := (*f)()
		st.WAL = &ws
	}
	if f := s.binEgress.Load(); f != nil {
		be := (*f)()
		st.BinEgress = &be
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}
