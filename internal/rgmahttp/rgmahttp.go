// Package rgmahttp serves the R-GMA virtual database over real HTTP, the
// transport the original gLite implementation used (Java servlets on
// Tomcat). It is a thin JSON binding over the transport-neutral
// rgmacore.Core — the same core internal/rgmabin drives over persistent
// binary connections — and reuses the tuple-store and SQL components the
// simulator validates: producers POST SQL INSERT statements, consumers
// create continuous/latest/history queries and poll with GET, exactly
// like the paper's subscriber polling its consumer every 100 ms.
//
// # Concurrency
//
// All shared state lives in the core, which guards it with locks rather
// than worker goroutines, so request handling runs on the HTTP server's
// connection goroutines and scales with them; see the rgmacore package
// comment for the two lock domains and the ordering contract. Consumer
// WHERE predicates are compiled once at create time by the predicate
// engine JMS selectors also use (internal/selector, through
// sqlmini.Program, column names resolved to row indexes) and evaluated
// on the insert fast path.
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
	"gridmon/internal/wal"
	"gridmon/internal/wire"
)

// Config tunes the server.
type Config struct {
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

// NewServer constructs an unstarted server over a service core, which
// other bindings (cmd/rgmad also serves rgmabin on it) may share.
func NewServer(core *rgmacore.Core, cfg Config) *Server {
	return &Server{cfg: cfg, core: core}
}

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

// decode reads a JSON request body of at most wire.MaxFrameSize bytes,
// the cap the binary port puts on every frame; a longer body is
// answered 413 before any of it reaches the core.
func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxFrameSize)).Decode(&v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("rgmahttp: bad request body: %w", err))
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
		LatestRetentionSec  uint32 `json:"latestRetentionSec"`
		HistoryRetentionSec uint32 `json:"historyRetentionSec"`
	}](w, r)
	if !ok {
		return
	}
	p, err := s.core.CreateProducer(req.Table,
		rgmacore.RetentionFromSeconds(req.LatestRetentionSec),
		rgmacore.RetentionFromSeconds(req.HistoryRetentionSec))
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

// Stats is the GET /stats document: the core's counters, plus the
// sources cmd/rgmad attaches.
type Stats struct {
	rgmacore.Stats

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

// StatsSnapshot reads the counters; safe from any goroutine.
func (s *Server) StatsSnapshot() Stats {
	st := Stats{Stats: s.core.StatsSnapshot()}
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
