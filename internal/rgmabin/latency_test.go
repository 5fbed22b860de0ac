package rgmabin_test

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmacore"
	"gridmon/internal/rgmahttp"
)

// measureInsertDeliverLatency times the paper's central JMS-vs-R-GMA
// gap, push versus poll, end to end over live TCP servers: a producer
// inserts n timestamped tuples spaced `gap` apart, and the consumer side
// records insert→deliver latency per tuple — via a poll loop with
// period `poll` for "http", via the server-push callback for "bin".
func measureInsertDeliverLatency(t *testing.T, transport string, n int, gap, poll time.Duration) []time.Duration {
	sendTimes := make([]time.Time, n)
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, n)
	done := make(chan struct{})
	record := func(seqCell string, now time.Time) {
		seq, err := strconv.Atoi(seqCell)
		if err != nil || seq < 0 || seq >= n {
			t.Errorf("bad seq cell %q", seqCell)
			return
		}
		mu.Lock()
		latencies = append(latencies, now.Sub(sendTimes[seq]))
		full := len(latencies) == n
		mu.Unlock()
		if full {
			close(done)
		}
	}

	var insert func(sql string) error
	switch transport {
	case "http":
		s := rgmahttp.NewServer(rgmacore.New(rgmacore.Config{}), rgmahttp.Config{})
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		c := rgmahttp.NewClient(addr)
		if err := c.CreateTable(createSQL); err != nil {
			t.Fatal(err)
		}
		cons, err := c.CreateConsumer("SELECT * FROM generator", "continuous")
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(poll)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					tuples, err := cons.Pop()
					if err != nil {
						return
					}
					now := time.Now()
					for _, tp := range tuples {
						record(tp.Row[1], now)
					}
				}
			}
		}()
		p, err := c.CreatePrimaryProducer("generator", time.Minute, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		insert = p.Insert
	case "bin":
		_, addr := startBin(t, rgmacore.Config{})
		cc, pc := dial(t, addr), dial(t, addr)
		if err := cc.CreateTable(createSQL); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.CreateConsumer("SELECT * FROM generator", "continuous",
			func(tuples []rgmabin.PoppedTuple) {
				now := time.Now()
				for _, tp := range tuples {
					record(tp.Row[1], now)
				}
			}); err != nil {
			t.Fatal(err)
		}
		p, err := pc.CreatePrimaryProducer("generator", time.Minute, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		insert = p.Insert
	default:
		t.Fatalf("unknown transport %q", transport)
	}

	for i := 0; i < n; i++ {
		stmt := fmt.Sprintf(
			"INSERT INTO generator (genid, seq, power, site) VALUES (%d, %d, 480.5, 'site-0001')", i, i)
		sendTimes[i] = time.Now()
		if err := insert(stmt); err != nil {
			t.Fatal(err)
		}
		time.Sleep(gap)
	}
	select {
	case <-done:
	case <-time.After(10*time.Second + 2*time.Duration(n)*poll):
		mu.Lock()
		got := len(latencies)
		mu.Unlock()
		t.Fatalf("%s: delivered %d of %d tuples before timeout", transport, got, n)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]time.Duration(nil), latencies...)
}

func latencyQuantile(samples []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// TestBinPushLatencyBeatsPoll: a polled tuple waits on average half a
// poll period before anyone sees it, while a pushed tuple is written to
// subscribed connections on the insert path and crosses in well under a
// millisecond, so both margins have enormous slack on a loaded box.
func TestBinPushLatencyBeatsPoll(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		gap, poll time.Duration
		factor    time.Duration
	}{
		// A short poll period with a modest margin.
		{"poll60ms_5x", 15, 4 * time.Millisecond, 60 * time.Millisecond, 5},
		// The paper's subscriber polled its consumer every 100 ms.
		{"poll100ms_10x", 40, 5 * time.Millisecond, 100 * time.Millisecond, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			httpMed := latencyQuantile(measureInsertDeliverLatency(t, "http", tc.n, tc.gap, tc.poll), 0.5)
			binMed := latencyQuantile(measureInsertDeliverLatency(t, "bin", tc.n, tc.gap, tc.poll), 0.5)
			t.Logf("insert→deliver median: http(poll %v) %v, bin(push) %v", tc.poll, httpMed, binMed)
			if binMed*tc.factor > httpMed {
				t.Fatalf("binary push median %v not at least %dx below %v-poll median %v",
					binMed, tc.factor, tc.poll, httpMed)
			}
		})
	}
}
