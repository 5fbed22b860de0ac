// Command gridsub is the receiving program of the paper's experiments on
// real TCP: it subscribes to a topic with a JMS selector and reports
// round-trip statistics from the publishers' embedded timestamps.
//
// Usage:
//
//	gridsub [-broker localhost:7672] [-topic power.monitoring]
//	        [-selector "id<10000"] [-durable NAME] [-report 10s]
//	        [-n 0] [-timeout 0] [-quiet]
//
// -durable NAME makes the subscription durable under that name: the
// broker stores matching messages while the subscriber is away and
// replays the backlog when a gridsub reconnects with the same name.
// Against a naradad running with -data-dir, the subscription and its
// backlog also survive broker restarts.
//
// Scripted runs (say, a DBN topology check) use -n to exit 0
// after exactly N messages, -timeout to exit 1 when they don't arrive in
// time, and -quiet to suppress the periodic reports:
//
//	gridsub -broker localhost:7773 -topic power -n 10 -timeout 30s -quiet
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync"
	"time"

	"gridmon/internal/jms"
	"gridmon/internal/message"
	"gridmon/internal/metrics"
)

func main() {
	addr := flag.String("broker", "localhost:7672", "broker address")
	topic := flag.String("topic", "power.monitoring", "topic to subscribe to")
	selector := flag.String("selector", "id<10000", "JMS message selector")
	durable := flag.String("durable", "", "durable subscription name (empty = non-durable)")
	report := flag.Duration("report", 10*time.Second, "statistics reporting interval")
	n := flag.Int64("n", 0, "exit 0 after receiving this many messages (0 = run until interrupted)")
	timeout := flag.Duration("timeout", 0, "exit 1 if -n messages have not arrived within this duration (0 = no limit)")
	quiet := flag.Bool("quiet", false, "suppress periodic reports (final summary still printed)")
	flag.Parse()

	conn, err := jms.Dial(*addr, "gridsub")
	if err != nil {
		log.Fatalf("gridsub: %v", err)
	}
	defer conn.Close()

	var mu sync.Mutex
	var rtt metrics.RTT
	done := make(chan struct{})
	var doneOnce sync.Once
	if _, err := conn.SubscribeDurable(message.Topic(*topic), *selector, *durable, func(m *message.Message) {
		ms := float64(time.Now().UnixNano()-m.Timestamp) / 1e6
		mu.Lock()
		rtt.Add(ms)
		count := rtt.Count()
		mu.Unlock()
		if *n > 0 && int64(count) >= *n {
			doneOnce.Do(func() { close(done) })
		}
	}); err != nil {
		log.Fatalf("gridsub: subscribe: %v", err)
	}
	if !*quiet {
		kind := "subscribed"
		if *durable != "" {
			kind = "durably subscribed as " + *durable
		}
		log.Printf("gridsub: %s to %s with selector %q on %s", kind, *topic, *selector, conn.BrokerID())
	}

	summary := func() {
		mu.Lock()
		defer mu.Unlock()
		if rtt.Count() > 0 {
			log.Printf("received=%d mean=%.2fms stddev=%.2fms p99=%.2fms max=%.2fms",
				rtt.Count(), rtt.Mean(), rtt.Stddev(), rtt.Percentile(99), rtt.Max())
		} else {
			log.Printf("received=0")
		}
	}

	var tick <-chan time.Time
	if !*quiet {
		tick = time.Tick(*report)
	}
	var deadline <-chan time.Time
	if *timeout > 0 {
		deadline = time.After(*timeout)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for {
		select {
		case <-tick:
			summary()
		case <-done:
			summary()
			return
		case <-deadline:
			summary()
			mu.Lock()
			got := rtt.Count()
			mu.Unlock()
			// The nth message and the deadline can be ready in the same
			// select; a run that met its target is a success regardless
			// of which channel won. With no -n target the deadline is
			// just a run-duration limit.
			if *n > 0 && int64(got) < *n {
				log.Printf("gridsub: timeout after %v with %d/%d messages", *timeout, got, *n)
				os.Exit(1)
			}
			return
		case <-sig:
			summary()
			return
		}
	}
}
