package jms

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
)

// Parallel-publish coverage for the sharded server: P publisher
// connections on distinct topics drive the core concurrently (reader
// goroutines dispatch straight into destination shards). Each
// subscriber must see exactly the stream the routing oracle's rule
// predicts for one publisher on one topic — every message once, in
// publish order. The CI race job runs this package with -race, which
// makes these tests the end-to-end locking check for the TCP binding.

func TestTCPParallelTopicsSharded(t *testing.T) {
	cfg := ServerConfig{}
	cfg.Broker = broker.DefaultConfig("naradad")
	cfg.Broker.Shards = 8
	s := startServer(t, cfg)

	const topics, perTopic = 4, 50
	var mu sync.Mutex
	var streams [topics][]int64 // per subscriber: the n property of each delivery, in arrival order
	subs := make([]*Connection, topics)
	for i := 0; i < topics; i++ {
		subs[i] = dial(t, s, fmt.Sprintf("sub-%d", i))
		i := i
		if _, err := subs[i].Subscribe(message.Topic(fmt.Sprintf("par.%d", i)), "", func(m *message.Message) {
			v, _ := m.Property("n")
			n, _ := v.AsLong()
			mu.Lock()
			streams[i] = append(streams[i], n)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < topics; i++ {
		wg.Add(1)
		pub := dial(t, s, fmt.Sprintf("pub-%d", i))
		go func(i int, pub *Connection) {
			defer wg.Done()
			for n := 0; n < perTopic; n++ {
				m := message.NewText("x")
				m.Dest = message.Topic(fmt.Sprintf("par.%d", i))
				m.SetProperty("n", message.Int(int32(n)))
				if err := pub.PublishSync(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, pub)
	}
	wg.Wait()

	want := make([]int64, perTopic)
	for n := range want {
		want[n] = int64(n)
	}
	for i := 0; i < topics; i++ {
		i := i
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(streams[i]) >= perTopic
		})
		mu.Lock()
		if !slices.Equal(streams[i], want) {
			t.Fatalf("topic %d: subscriber saw %v, want 0..%d in publish order", i, streams[i], perTopic-1)
		}
		mu.Unlock()
	}
	st := s.Stats()
	if st.Published != topics*perTopic || st.Delivered != topics*perTopic {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTCPStatsFromAnyGoroutine hammers Server.Stats while publishers
// run: the counters are atomics in the broker's egress layer, so no
// lock is involved.
func TestTCPStatsFromAnyGoroutine(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	var got atomic.Int64
	if _, err := sub.Subscribe(message.Topic("t"), "", func(*message.Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Stats()
				}
			}
		}()
	}
	pub := dial(t, s, "pub")
	for i := 0; i < 100; i++ {
		m := message.NewText("x")
		m.Dest = message.Topic("t")
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	waitFor(t, func() bool { return got.Load() == 100 })
	if st := s.Stats(); st.Published != 100 {
		t.Fatalf("published = %d", st.Published)
	}
}
