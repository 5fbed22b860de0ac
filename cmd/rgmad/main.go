// Command rgmad serves the R-GMA virtual database over two transports
// that share one core: HTTP (the request/response binding the
// original gLite implementation used, consumers poll) and a persistent
// binary protocol on a second port (producers pipeline batched INSERT
// frames, continuous consumers receive tuples by server push).
// Producers publish tuples with SQL INSERT statements and consumers run
// continuous, latest or history SELECT queries; a tuple inserted on
// either port is visible to consumers on both.
//
// Usage:
//
//	rgmad [-listen :8088] [-listen-bin :8089] [-stats 1m]
//	      [-data-dir DIR] [-fsync] [-pprof]
//
// Inserts into different producers and pops on different consumers run
// in parallel on the transports' goroutines, and the insert/pop read
// paths are lock-free: they route through a copy-on-write snapshot of
// the per-table indexes instead of taking the core's table lock.
// -pprof mounts net/http/pprof under /debug/pprof/ on the HTTP port and
// enables mutex profiling, so lock contention can be measured on a live
// daemon (see README "Concurrency architecture").
// -listen-bin "" disables the binary port. The daemon stops cleanly on
// SIGINT or SIGTERM (containerized runs send the latter).
//
// -data-dir makes the core's durable state — table schemas, producers
// with their retained tuples, polling consumers — survive restarts: a
// segmented write-ahead log under DIR is replayed before either port
// serves, and a clean shutdown snapshots and marks the log so the next
// start skips the replay scan. -fsync additionally syncs every group
// commit, so an acknowledged INSERT survives power loss. Without
// -data-dir the core is memory-only, exactly as before. WAL counters
// appear under "wal" in /stats.
//
// Try it:
//
//	curl -X POST localhost:8088/schema/createTable \
//	  -d '{"sql":"CREATE TABLE generator (genid INTEGER PRIMARY KEY, power DOUBLE PRECISION)"}'
//	curl -X POST localhost:8088/producer/create -d '{"table":"generator"}'
//	curl -X POST localhost:8088/producer/insert \
//	  -d '{"producer":1,"sql":"INSERT INTO generator (genid, power) VALUES (1, 480.5)"}'
//	curl -X POST localhost:8088/consumer/create \
//	  -d '{"query":"SELECT * FROM generator","type":"latest"}'
//	curl 'localhost:8088/consumer/pop?id=2'
//	curl localhost:8088/stats
//
// and load both ports with bash bench/run.sh -workload rgma_stream.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmacore"
	"gridmon/internal/rgmahttp"
	"gridmon/internal/rgmawal"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
)

func main() {
	listen := flag.String("listen", ":8088", "HTTP listen address")
	listenBin := flag.String("listen-bin", ":8089", "binary transport listen address (empty disables)")
	statsEvery := flag.Duration("stats", time.Minute, "stats logging interval (0 disables)")
	dataDir := flag.String("data-dir", "", "persist schemas, producers and tuples to a write-ahead log under this directory (empty = memory-only)")
	fsync := flag.Bool("fsync", false, "fsync every WAL group commit (durable against power loss, not just crashes)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ and enable mutex profiling")
	flag.Parse()

	// Before any port serves, so a SIGTERM at "ready" still exits cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *pprofOn {
		runtime.SetMutexProfileFraction(5)
	}
	core := rgmacore.New(rgmacore.Config{})
	srv := rgmahttp.NewServer(core, rgmahttp.Config{Pprof: *pprofOn})

	// With -data-dir, recover the core before either port serves: the
	// core is quiescent until ListenAndServe below.
	var pers *rgmawal.Persister
	if *dataDir != "" {
		fsys, err := walfs.Disk(*dataDir)
		if err != nil {
			log.Fatalf("rgmad: %v", err)
		}
		p, info, err := rgmawal.Open(fsys, wal.Options{Fsync: *fsync}, core)
		if err != nil {
			log.Fatalf("rgmad: wal: %v", err)
		}
		pers = p
		srv.SetWALStats(pers.Stats)
		log.Printf("rgmad recovered %s: %d records, %d segments, snapshot gen %d, %d torn bytes dropped, clean=%v",
			*dataDir, info.Records, info.Segments, info.SnapshotGen, info.TruncatedTail, info.CleanStart)
	}

	addr, err := srv.ListenAndServe(*listen)
	if err != nil {
		log.Fatalf("rgmad: %v", err)
	}
	log.Printf("rgmad listening on %s", addr)

	var binSrv *rgmabin.Server
	if *listenBin != "" {
		binSrv = rgmabin.NewServer(core)
		srv.SetBinEgress(binSrv.EgressStats)
		binAddr, err := binSrv.ListenAndServe(*listenBin)
		if err != nil {
			log.Fatalf("rgmad: binary transport: %v", err)
		}
		log.Printf("rgmad binary transport on %s (same core)", binAddr)
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				s := srv.StatsSnapshot()
				log.Printf("stats: producers=%d consumers=%d inserts=%d pops=%d streamed=%d popped=%d dropped=%d",
					s.Producers, s.Consumers, s.Inserts, s.Pops, s.TuplesStreamed, s.TuplesPopped, s.TuplesDropped)
			}
		}()
	}

	got := <-sig
	log.Printf("rgmad: shutting down (%v)", got)
	if binSrv != nil {
		_ = binSrv.Close()
	}
	_ = srv.Close()
	if pers != nil {
		// Both Close calls return after their in-flight requests and
		// connection teardown, so the dump sees a quiescent core.
		if err := pers.CloseClean(); err != nil {
			log.Printf("rgmad: wal close: %v", err)
		}
	}
}
