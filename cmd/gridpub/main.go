// Command gridpub simulates power generators against a real naradad
// broker: each generator publishes the paper's monitoring MapMessage on a
// topic at a fixed period.
//
// Usage:
//
//	gridpub [-broker localhost:7672] [-topic power.monitoring]
//	        [-generators 10] [-period 10s] [-count 0]
//
// Load-test mode probes the broker's destination shards: -conns
// parallel connections each publish at -rate msg/s (0 = full speed)
// round-robin over -topics topics, and it prints the aggregate rate and
// nearest-rank p50/p95/p99/max per-publish latency (with -sync the
// publish→acknowledgement round trip, else the local enqueue):
//
//	gridpub -conns 8 -rate 100 -topics 8 -count 10000
//
// It stays until the broker's shard layer is measured and kept or
// deleted; bash bench/run.sh is the load generator whose numbers count.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/gridgen"
	"gridmon/internal/jms"
	"gridmon/internal/message"
	"gridmon/internal/metrics"
)

func main() {
	addr := flag.String("broker", "localhost:7672", "broker address")
	topic := flag.String("topic", "power.monitoring", "topic to publish on")
	generators := flag.Int("generators", 10, "number of simulated generators")
	period := flag.Duration("period", 10*time.Second, "publish period per generator")
	count := flag.Int("count", 0, "messages per generator/connection (0 = run until interrupted)")
	sync_ := flag.Bool("sync", false, "wait for broker acknowledgement per publish")
	conns := flag.Int("conns", 0, "load-test mode: number of parallel connections (0 = generator mode)")
	rate := flag.Float64("rate", 0, "load-test mode: per-connection publish rate in msg/s (0 = full speed)")
	topics := flag.Int("topics", 1, "load-test mode: spread publishes across N topics (topic.0 ... topic.N-1)")
	flag.Parse()

	if *conns > 0 {
		loadTest(*addr, *topic, *conns, *topics, *count, *rate, *sync_)
		return
	}

	var wg sync.WaitGroup
	recs := make([]*metrics.RTT, *generators)
	for g := 0; g < *generators; g++ {
		recs[g] = new(metrics.RTT)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := jms.Dial(*addr, "gridpub")
			if err != nil {
				log.Printf("generator %d: %v", g, err)
				return
			}
			defer conn.Close()
			seq := int64(0)
			for {
				seq++
				m := gridgen.MonitoringMessage(g, seq)
				m.Dest = message.Topic(*topic)
				var err error
				t0 := time.Now()
				if *sync_ {
					err = conn.PublishSync(m)
				} else {
					err = conn.Publish(m)
				}
				if err != nil {
					log.Printf("generator %d: publish: %v", g, err)
					return
				}
				recs[g].Add(sinceMs(t0))
				if *count > 0 && seq >= int64(*count) {
					return
				}
				time.Sleep(*period)
			}
		}(g)
	}
	wg.Wait()
	log.Printf("gridpub: all generators finished")
	logLatency(recs, *sync_)
}

func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// logLatency merges the workers' samples (after they have joined) and
// prints the per-publish percentile summary.
func logLatency(recs []*metrics.RTT, syncMode bool) {
	var all metrics.RTT
	for _, r := range recs {
		all.Merge(r)
	}
	kind := "publish enqueue"
	if syncMode {
		kind = "publish-ack round trip"
	}
	log.Printf("gridpub: %s latency: n=%d p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms", kind,
		all.Count(), all.Percentile(50), all.Percentile(95), all.Percentile(99), all.Max())
}

// loadTest runs nConns parallel connections, each publishing at the
// given per-connection rate, cycling over nTopics topics so the sharded
// server spreads the load across destination shards.
func loadTest(addr, topic string, nConns, nTopics, count int, rate float64, syncMode bool) {
	if nTopics < 1 {
		nTopics = 1
	}
	var sent, failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	recs := make([]*metrics.RTT, nConns)
	for c := 0; c < nConns; c++ {
		recs[c] = new(metrics.RTT)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := jms.Dial(addr, fmt.Sprintf("gridpub-load-%d", c))
			if err != nil {
				log.Printf("conn %d: %v", c, err)
				failed.Add(1)
				return
			}
			defer conn.Close()
			var tick <-chan time.Time
			if rate > 0 {
				interval := time.Duration(float64(time.Second) / rate)
				if interval <= 0 {
					interval = time.Nanosecond // absurd -rate: full speed
				}
				t := time.NewTicker(interval)
				defer t.Stop()
				tick = t.C
			}
			for seq := int64(1); count == 0 || seq <= int64(count); seq++ {
				m := gridgen.MonitoringMessage(c, seq)
				if nTopics > 1 {
					m.Dest = message.Topic(fmt.Sprintf("%s.%d", topic, (c+int(seq))%nTopics))
				} else {
					m.Dest = message.Topic(topic)
				}
				var err error
				t0 := time.Now()
				if syncMode {
					err = conn.PublishSync(m)
				} else {
					err = conn.Publish(m)
				}
				if err != nil {
					log.Printf("conn %d: publish: %v", c, err)
					return
				}
				recs[c].Add(sinceMs(t0))
				sent.Add(1)
				if tick != nil {
					<-tick
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := sent.Load()
	log.Printf("gridpub: load test done: %d msgs over %d conns on %d topics in %v (%.0f msg/s aggregate)",
		n, nConns, nTopics, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	logLatency(recs, syncMode)
	if failed.Load() > 0 {
		log.Printf("gridpub: %d connections failed to dial", failed.Load())
	}
}
