// Command naradad runs the NaradaBrokering-style message broker on real
// TCP. It speaks the same wire protocol the simulator validates, so
// anything measured in the reproduction holds for this daemon.
//
// Usage:
//
//	naradad [-listen :7672] [-id broker-1] [-max-conn-mem 0]
//	        [-shards 0] [-data-dir DIR] [-fsync]
//	        [-routing broadcast|tree] [-peer host:port]...
//	        [-stats-listen :7680] [-pprof]
//
// The broker core is sharded across the CPUs (publishes to different
// topics run in parallel) and topic routing is lock-free: a publish
// reads a copy-on-write snapshot of the subscriber index without taking
// its shard's lock. -shards pins the destination-shard count. -pprof
// mounts net/http/pprof under /debug/pprof/ on the stats listener
// (requires -stats-listen) and enables mutex profiling, so lock
// contention can be measured on a live daemon; the shard-lock wait
// counters appear in GET /stats either way.
//
// -data-dir makes the broker's durable state — durable subscriptions,
// their disconnected backlogs and queue backlogs — survive restarts: a
// segmented write-ahead log under DIR is replayed before the listener
// accepts, and a clean shutdown (SIGINT/SIGTERM) snapshots and marks
// the log so the next start skips the replay scan. -fsync additionally
// syncs every group commit, making an acknowledged publish durable
// against power loss, not just process death. Without -data-dir the
// broker is memory-only, exactly as before.
//
// Several naradad processes form the paper's Distributed Broker Network
// over real TCP: give every daemon the same -routing mode and point
// each non-root broker at its parent with -peer (repeatable; configure
// each link on exactly one of its ends). A three-broker tree:
//
//	naradad -listen :7771 -id b1 -routing tree
//	naradad -listen :7772 -id b2 -routing tree -peer localhost:7771
//	naradad -listen :7773 -id b3 -routing tree -peer localhost:7772
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gridmon/internal/broker"
	"gridmon/internal/brokernet"
	"gridmon/internal/brokerwal"
	"gridmon/internal/jms"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
	"gridmon/internal/wire"
)

func main() {
	listen := flag.String("listen", ":7672", "TCP listen address")
	id := flag.String("id", "naradad", "broker identifier")
	maxConnMem := flag.Int64("max-conn-mem", 0, "total connection memory budget in bytes, 256 KiB charged per connection (0 = unlimited); reproduces the paper's admission cliff")
	statsEvery := flag.Duration("stats", time.Minute, "stats logging interval (0 disables)")
	statsListen := flag.String("stats-listen", "", "HTTP address serving GET /stats as JSON (empty disables)")
	shards := flag.Int("shards", 0, "destination shard count (0 = one per CPU)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the stats listener (requires -stats-listen) and enable mutex profiling")
	dataDir := flag.String("data-dir", "", "persist durable subscriptions and queues to a write-ahead log under this directory (empty = memory-only)")
	fsync := flag.Bool("fsync", false, "fsync every WAL group commit (durable against power loss, not just crashes)")
	routing := flag.String("routing", "", "join a distributed broker network with this routing mode (broadcast or tree)")
	var peers []string
	flag.Func("peer", "peer broker address to link to (repeatable; requires -routing)", func(v string) error {
		peers = append(peers, v)
		return nil
	})
	flag.Parse()

	// SIGTERM alongside SIGINT: containers stop with SIGTERM, and with
	// -data-dir a signal-driven exit installs the clean-shutdown marker,
	// even for a signal sent the moment the daemon reports ready.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if len(peers) > 0 && *routing == "" {
		log.Fatal("naradad: -peer requires -routing (broadcast or tree)")
	}
	if *pprofOn {
		if *statsListen == "" {
			log.Fatal("naradad: -pprof requires -stats-listen (pprof mounts on the stats endpoint)")
		}
		runtime.SetMutexProfileFraction(5)
	}

	cfg := broker.DefaultConfig(*id)
	cfg.Shards = *shards

	// With -data-dir, recovery runs in NewServerRestored's quiescent
	// window: the WAL is replayed into the broker before the listener
	// accepts its first connection.
	var pers *brokerwal.Persister
	var restore func(*broker.Broker) error
	if *dataDir != "" {
		fsys, err := walfs.Disk(*dataDir)
		if err != nil {
			log.Fatalf("naradad: %v", err)
		}
		restore = func(b *broker.Broker) error {
			p, info, err := brokerwal.Open(fsys, wal.Options{Fsync: *fsync}, b)
			if err != nil {
				return err
			}
			pers = p
			log.Printf("naradad %q recovered %s: %d records, %d segments, snapshot gen %d, %d torn bytes dropped, clean=%v",
				*id, *dataDir, info.Records, info.Segments, info.SnapshotGen, info.TruncatedTail, info.CleanStart)
			return nil
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("naradad: %v", err)
	}
	srv, err := jms.NewServerRestored(ln, jms.ServerConfig{
		Broker:        cfg,
		MaxConnMemory: *maxConnMem,
	}, restore)
	if err != nil {
		log.Fatalf("naradad: %v", err)
	}
	log.Printf("naradad %q listening on %s", *id, srv.Addr())

	if *routing != "" {
		mode, err := brokernet.ParseRoutingMode(*routing)
		if err != nil {
			log.Fatalf("naradad: %v", err)
		}
		if _, err := srv.JoinNetwork(mode); err != nil {
			log.Fatalf("naradad: %v", err)
		}
		log.Printf("naradad %q joined broker network (%s routing)", *id, mode)
		for _, addr := range peers {
			go maintainPeer(srv, *id, addr)
		}
	}

	if *statsListen != "" {
		go serveStats(*statsListen, srv, pers, *pprofOn)
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				s := srv.Stats()
				line := fmt.Sprintf("stats: conns=%d (peak %d) published=%d delivered=%d acked=%d forwarded-out=%d forwarded-in=%d refused=%d",
					s.Connections, s.PeakConnections, s.Published, s.Delivered, s.Acked, s.ForwardedOut, s.ForwardedIn, s.RefusedConns)
				if pers != nil {
					w := pers.Stats()
					line += fmt.Sprintf(" wal: records=%d bytes=%d fsyncs=%d snapshots=%d",
						w.RecordsAppended, w.BytesLogged, w.Fsyncs, w.Snapshots)
				}
				log.Print(line)
			}
		}()
	}

	got := <-sig
	fmt.Println()
	log.Printf("naradad: shutting down (%v)", got)
	// Close returns once every connection's teardown has run, so the
	// snapshot dump below sees a quiescent core.
	srv.Close()
	if pers != nil {
		if err := pers.CloseClean(); err != nil {
			log.Printf("naradad: wal close: %v", err)
		}
	}
}

// serveStats exposes the broker and WAL counters as JSON on
// GET /stats, the naradad counterpart of rgmad's HTTP stats endpoint.
// With pprofOn the net/http/pprof handlers ride on the same listener —
// the capture recipe is in the README's "Concurrency architecture"
// section.
func serveStats(addr string, srv *jms.Server, pers *brokerwal.Persister, pprofOn bool) {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			broker.Stats
			// EgressFramesPerFlush is the broker-level average coalescing
			// run length (Deliver frames per batched emission);
			// TransportEgress counts the socket-level writer batching.
			EgressFramesPerFlush float64          `json:"egress_frames_per_flush"`
			TransportEgress      wire.EgressStats `json:"transport_egress"`
			WAL                  *wal.Stats       `json:"wal,omitempty"`
		}{Stats: srv.Stats(), TransportEgress: srv.EgressStats()}
		out.EgressFramesPerFlush = out.Stats.EgressFramesPerFlush()
		if pers != nil {
			ws := pers.Stats()
			out.WAL = &ws
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("naradad: stats endpoint: %v", err)
	}
}

// maintainPeer supervises one configured peer link for the daemon's
// lifetime: it dials (retrying while the peer daemon is still starting
// up — broker trees launch as independent processes) and, whenever an
// established link later dies, withdraws to the dial loop and relinks,
// so a transient TCP failure cannot permanently partition the network.
func maintainPeer(srv *jms.Server, id, addr string) {
	logged := false
	for {
		peerID, err := srv.DialPeer(addr)
		if err != nil {
			if !logged {
				log.Printf("naradad %q: peer %s not linked yet (retrying): %v", id, addr, err)
				logged = true
			}
			time.Sleep(500 * time.Millisecond)
			continue
		}
		logged = false
		log.Printf("naradad %q linked to peer %q at %s", id, peerID, addr)
		for srv.Member().HasPeer(peerID) {
			time.Sleep(time.Second)
		}
		log.Printf("naradad %q: link to peer %q at %s died, redialing", id, peerID, addr)
	}
}
