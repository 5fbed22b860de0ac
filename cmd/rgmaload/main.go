// Command rgmaload load-tests a live rgmad server, the R-GMA
// counterpart of gridpub's load-test mode: parallel producer
// connections publish SQL INSERTs at a controlled per-connection rate,
// spread across several tables, while optional continuous consumers
// observe the stream.
//
// Usage:
//
//	rgmaload [-server localhost:8088] [-transport http|bin] [-conns 8]
//	         [-rate 100] [-tables 8] [-count 1000] [-batch 1]
//	         [-consumers 0] [-poll 100ms]
//
// -transport selects the wire protocol. http is the original gLite-style
// request/response binding: one POST per insert, consumers poll every
// -poll (the paper's 100 ms subscriber loop). bin is the persistent
// binary transport: producers pipeline -batch INSERT statements per
// frame over one connection, and continuous consumers receive tuples by
// server push the moment they are inserted — no polling at all, so
// -poll is ignored. Point -server at the matching rgmad port (rgmad
// -listen for http, rgmad -listen-bin for bin).
//
// Example — 8 parallel producers at 100 inserts/s each (0 = as fast as
// possible) round-robin onto load0 … load7, with one continuous
// consumer per table:
//
//	rgmaload -transport bin -server localhost:8089 \
//	         -conns 8 -rate 100 -tables 8 -count 1000 -batch 16 -consumers 8
//
// It reports the aggregate insert throughput achieved, the
// p50/p95/p99/max latency of the acknowledged operations (each HTTP
// insert request; each pipelined batch flush on bin) and, when
// consumers run, the tuples they observed. In a bounded run consumer i
// must observe every insert into its table (count × the producers
// writing load{i mod tables}); a run whose consumers miss tuples exits
// 1 with "observed X of Y". Every latency sample is kept (8 bytes
// each) and the percentiles are nearest-rank over all of them, as
// metrics.RTT computes the paper's figures. Drive rgmad once with
// -transport http and once with bin to measure the push transport's
// gain on your hardware.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/metrics"
	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmahttp"
	"gridmon/internal/sqlmini"
)

// pushGrace bounds how long a bounded bin run waits, after the last
// insert ack, for its push consumers' tuples still in flight.
const pushGrace = 5 * time.Second

// producerSession is one worker's handle on the server, whichever
// transport carries it. flush pushes out any partial batch (a no-op
// over HTTP, which has no batching). Each transport records its acked
// operation into the worker's metrics.RTT (in ms): HTTP times every
// insert request, bin times every batch flush.
type producerSession struct {
	send  func(sql string) error
	flush func() error
	close func() error
}

func main() {
	server := flag.String("server", "localhost:8088", "rgmad address (the HTTP port for -transport http, the binary port for bin)")
	transport := flag.String("transport", "http", "wire protocol: http (request/response, polling consumers) or bin (persistent binary, push consumers)")
	conns := flag.Int("conns", 8, "parallel producer connections")
	rate := flag.Float64("rate", 0, "per-connection insert rate in tuples/s (0 = full speed)")
	tables := flag.Int("tables", 8, "spread producers across N tables (load0 ... loadN-1)")
	count := flag.Int("count", 1000, "inserts per connection (0 = run until interrupted)")
	batch := flag.Int("batch", 1, "INSERT statements per frame on the bin transport (http always sends one per request)")
	consumers := flag.Int("consumers", 0, "continuous consumers (one per table, round-robin)")
	poll := flag.Duration("poll", 100*time.Millisecond, "consumer poll interval for -transport http (bin consumers are push-fed)")
	flag.Parse()

	if *tables < 1 {
		*tables = 1
	}
	if *batch < 1 {
		*batch = 1
	}
	tableName := func(i int) string { return fmt.Sprintf("load%d", i%*tables) }

	// Transport bindings. Each branch fills in the same four hooks so
	// the load loop below is transport-blind.
	var (
		createTable   func(sql string) error
		newProducer   func(w int, table string, rec *metrics.RTT) (producerSession, error)
		startConsumer func(i int, seen *atomic.Int64, want int64) (stop func(deadline time.Time), err error)
		serverStats   func()
	)
	switch *transport {
	case "http":
		c := rgmahttp.NewClient(*server)
		createTable = c.CreateTable
		newProducer = func(w int, table string, rec *metrics.RTT) (producerSession, error) {
			p, err := c.CreatePrimaryProducer(table, 30*time.Second, time.Minute)
			if err != nil {
				return producerSession{}, err
			}
			return producerSession{
				send: func(sql string) error {
					t0 := time.Now()
					err := p.Insert(sql)
					if err == nil {
						rec.Add(float64(time.Since(t0)) / 1e6)
					}
					return err
				},
				flush: func() error { return nil },
				close: p.Close,
			}, nil
		}
		startConsumer = func(i int, seen *atomic.Int64, _ int64) (func(time.Time), error) {
			cons, err := c.CreateConsumer(fmt.Sprintf("SELECT * FROM %s", tableName(i)), "continuous")
			if err != nil {
				return nil, err
			}
			done := make(chan struct{})
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				defer func() { _ = cons.Close() }() // leave no standing consumer on the server
				tick := time.NewTicker(*poll)
				defer tick.Stop()
				for {
					select {
					case <-done:
						// Final drain so late inserts are counted.
						if tuples, err := cons.Pop(); err == nil {
							seen.Add(int64(len(tuples)))
						}
						return
					case <-tick.C:
						tuples, err := cons.Pop()
						if err != nil {
							log.Printf("rgmaload: pop: %v", err)
							return
						}
						seen.Add(int64(len(tuples)))
					}
				}
			}()
			return func(time.Time) { close(done); <-finished }, nil
		}
		serverStats = func() {
			if st, err := c.Stats(); err == nil {
				log.Printf("rgmaload: server stats: %+v", st)
			}
		}
	case "bin":
		control, err := rgmabin.Dial(*server)
		if err != nil {
			log.Fatalf("rgmaload: dial %s: %v", *server, err)
		}
		defer control.Close()
		createTable = control.CreateTable
		newProducer = func(w int, table string, rec *metrics.RTT) (producerSession, error) {
			// Each worker gets its own connection so -conns measures
			// genuinely parallel binary sessions, like HTTP's pooled
			// sockets.
			pc, err := rgmabin.Dial(*server)
			if err != nil {
				return producerSession{}, err
			}
			p, err := pc.CreatePrimaryProducer(table, 30*time.Second, time.Minute)
			if err != nil {
				_ = pc.Close()
				return producerSession{}, err
			}
			pending := make([]string, 0, *batch)
			flush := func() error {
				if len(pending) == 0 {
					return nil
				}
				t0 := time.Now()
				err := p.InsertBatch(pending)
				if err == nil {
					rec.Add(float64(time.Since(t0)) / 1e6)
				}
				pending = pending[:0]
				return err
			}
			return producerSession{
				send: func(sql string) error {
					pending = append(pending, sql)
					if len(pending) < *batch {
						return nil
					}
					return flush()
				},
				flush: flush,
				close: func() error {
					err := p.Close()
					_ = pc.Close()
					return err
				},
			}, nil
		}
		startConsumer = func(i int, seen *atomic.Int64, want int64) (func(time.Time), error) {
			// Push-fed: the server delivers tuples as they are
			// inserted; the callback just counts them. Each consumer
			// has its own connection, so the server's slow-consumer
			// policy sees one stream per socket, as a real consumer's.
			cc, err := rgmabin.Dial(*server)
			if err != nil {
				return nil, err
			}
			cons, err := cc.CreateConsumer(
				fmt.Sprintf("SELECT * FROM %s", tableName(i)), "continuous",
				func(tuples []rgmabin.PoppedTuple) { seen.Add(int64(len(tuples))) })
			if err != nil {
				_ = cc.Close()
				return nil, err
			}
			return func(deadline time.Time) {
				// Pushes still in flight after the last insert ack are
				// counted before we unsubscribe.
				for seen.Load() < want && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				_ = cons.Close()
				_ = cc.Close()
			}, nil
		}
		serverStats = func() {} // stats endpoint is HTTP-only
	default:
		log.Fatalf("rgmaload: unknown -transport %q (want http or bin)", *transport)
	}

	schema := &sqlmini.Table{Columns: []sqlmini.Column{
		{Name: "genid", Type: sqlmini.TInteger, Primary: true},
		{Name: "seq", Type: sqlmini.TInteger},
		{Name: "power", Type: sqlmini.TDouble},
		{Name: "site", Type: sqlmini.TChar, Len: 20},
	}}
	for i := 0; i < *tables; i++ {
		sql := fmt.Sprintf("CREATE TABLE %s (genid INTEGER PRIMARY KEY, seq INTEGER, power DOUBLE PRECISION, site CHAR(20))", tableName(i))
		if err := createTable(sql); err != nil {
			log.Fatalf("rgmaload: create table: %v", err)
		}
	}

	// Consumer i watches tableName(i), which every producer w with the
	// same w mod tables writes count times.
	wants := make([]int64, *consumers)
	var want int64
	for i := range wants {
		for w := 0; w < *conns; w++ {
			if w%*tables == i%*tables {
				wants[i] += int64(*count)
			}
		}
		want += wants[i]
	}
	seen := make([]atomic.Int64, *consumers)
	stops := make([]func(time.Time), 0, *consumers)
	for i := 0; i < *consumers; i++ {
		stop, err := startConsumer(i, &seen[i], wants[i])
		if err != nil {
			log.Fatalf("rgmaload: create consumer: %v", err)
		}
		stops = append(stops, stop)
	}

	var sent, failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	recs := make([]*metrics.RTT, *conns)
	for w := 0; w < *conns; w++ {
		recs[w] = new(metrics.RTT)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tab := *schema
			tab.Name = tableName(w)
			p, err := newProducer(w, tab.Name, recs[w])
			if err != nil {
				log.Printf("conn %d: %v", w, err)
				failed.Add(1)
				return
			}
			defer func() { _ = p.close() }()
			var tick <-chan time.Time
			if *rate > 0 {
				interval := time.Duration(float64(time.Second) / *rate)
				if interval <= 0 {
					interval = time.Nanosecond // absurd -rate: full speed
				}
				t := time.NewTicker(interval)
				defer t.Stop()
				tick = t.C
			}
			for seq := int64(1); *count == 0 || seq <= int64(*count); seq++ {
				row := sqlmini.Row{
					sqlmini.IntV(int64(w)),
					sqlmini.IntV(seq),
					sqlmini.FloatV(480.5),
					sqlmini.StringV(fmt.Sprintf("site-%04d", w)),
				}
				if err := p.send(sqlmini.FormatInsert(&tab, row)); err != nil {
					log.Printf("conn %d: insert: %v", w, err)
					failed.Add(1)
					return
				}
				sent.Add(1)
				if tick != nil {
					<-tick
				}
			}
			if err := p.flush(); err != nil {
				log.Printf("conn %d: flush: %v", w, err)
				failed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	deadline := time.Now().Add(pushGrace)
	var observed int64
	short := false // some consumer saw fewer tuples than its table got
	for i, stop := range stops {
		stop(deadline)
		observed += seen[i].Load()
		short = short || seen[i].Load() < wants[i]
	}

	n := sent.Load()
	log.Printf("rgmaload: %d inserts over %d conns on %d tables in %v (%.0f inserts/s aggregate, transport %s)",
		n, *conns, *tables, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), *transport)
	var all metrics.RTT
	for _, r := range recs {
		all.Merge(r)
	}
	op := "insert round trip"
	if *transport == "bin" {
		op = fmt.Sprintf("batch flush round trip (batch %d)", *batch)
	}
	log.Printf("rgmaload: %s latency: n=%d p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms", op,
		all.Count(), all.Percentile(50), all.Percentile(95), all.Percentile(99), all.Max())
	if *consumers > 0 {
		log.Printf("rgmaload: %d consumers observed %d tuples", *consumers, observed)
	}
	if failed.Load() > 0 {
		log.Printf("rgmaload: %d connections failed (producer create or mid-run insert)", failed.Load())
	}
	serverStats()
	// A bounded run that lost inserts or tuples must not look like a
	// clean one to scripts: exit non-zero unless every planned insert
	// was sent, every batch flushed and every consumer saw its table's
	// inserts.
	lost := false
	if failed.Load() > 0 || (*count > 0 && n != int64(*conns)*int64(*count)) {
		log.Printf("rgmaload: sent %d of %d planned inserts", n, int64(*conns)*int64(*count))
		lost = true
	}
	if short {
		log.Printf("rgmaload: consumers observed %d of %d tuples", observed, want)
		lost = true
	}
	if lost {
		os.Exit(1)
	}
}
