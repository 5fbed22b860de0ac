package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/bench/inputs"
	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmahttp"
)

const (
	// tupleBatches is the length of the producer's ring of pre-rendered
	// InsertBatch frames (65 536 tuples).
	tupleBatches = 4096
	// pushInflight bounds the batches inserted whose pushed tuples have
	// not all reached the push consumer. The server's writer queue holds
	// 1024 frames and drops the connection beyond that; should it merge
	// nothing, 48 batches are at most 768 frames.
	pushInflight = 48
	// pollInflight bounds the batches inserted but not yet popped, in
	// tuples 12 288: under the 16 384 the server buffers for a polling
	// consumer before it drops the oldest.
	pollInflight = 768
	pollEvery    = 100 * time.Millisecond // the paper's subscriber loop
	rgmaChurn    = 50                     // CreateConsumer/Close cycles per second
	retention    = 2 * time.Second        // keeps the producer's store, and so peak RSS, independent of run length
	rgmaTraceN   = 8                      // trace one batch in so many
)

// rgmaLoad is the rgma_stream workload: one rgmabin producer, one rgmabin
// push consumer and one rgmahttp polling consumer on one table.
type rgmaLoad struct {
	r      *run
	tuples *inputs.Tuples

	prodClient, pushClient *rgmabin.Client
	producer               *rgmabin.RemoteProducer
	httpClient             *rgmahttp.Client
	poller                 *rgmahttp.RemoteConsumer

	stamps             []atomic.Int64 // send stamp by ring batch
	pushWin, pollWin   window
	stop               chan struct{}
	wg                 sync.WaitGroup
	batches            int64 // InsertBatch calls completed; the producer's alone until wg.Wait
	insertErrs         int64
	setupOps           int64
	churn              churner
	strays             atomic.Int64
	dropped            uint64 // server-side poll-buffer drops, read at tally
	statsErr           error
	popErrs, pops      int64
	popCall, pollRTT   []int64 // ns, window only
	popSizes           []float64
	pollLag            []int64
	pollInWin          int64
	pollStream         stream
	pollBad            int64
	pushTotal          atomic.Int64
	pollN              atomic.Int64 // tuples popped so far; written by whoever polls
	pushMu             sync.Mutex   // orders the client's reader goroutine against tally
	pushStream         stream
	pushLat            []int64
	pushInWin, pushBad int64
}

func openRGMA(r *run, d *daemon) (load, error) {
	l := &rgmaLoad{r: r, stop: make(chan struct{})}
	if err := l.connect(d); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *rgmaLoad) dial(addr string) (*rgmabin.Client, error) {
	t0 := l.r.now()
	c, err := rgmabin.Dial(addr)
	l.r.tr.add(0, -1, "rgmabin.Dial", t0, l.r.now())
	return c, err
}

func (l *rgmaLoad) connect(d *daemon) (err error) {
	l.tuples = inputs.NewTuples(l.r.seed, tupleBatches)
	ring := int64(l.tuples.Len())
	l.pollStream = stream{ring: ring}
	l.pushStream = stream{ring: ring, table: l.tuples.Matching}
	l.stamps = make([]atomic.Int64, tupleBatches)
	l.pushWin, l.pollWin = newWindow(pushInflight), newWindow(pollInflight)

	if l.prodClient, err = l.dial(d.addr); err != nil {
		return err
	}
	if l.pushClient, err = l.dial(d.addr); err != nil {
		return err
	}
	l.httpClient = rgmahttp.NewClient(d.http)
	if err = l.prodClient.CreateTable(inputs.TableSQL); err != nil {
		return err
	}
	if l.producer, err = l.prodClient.CreatePrimaryProducer("generator", retention, retention); err != nil {
		return err
	}
	t0 := l.r.now()
	_, err = l.pushClient.CreateConsumer(inputs.PushQuery, "continuous", l.onPush)
	l.r.tr.add(0, -1, "rgmabin.CreateConsumer", t0, l.r.now())
	if err != nil {
		return err
	}
	if l.poller, err = l.httpClient.CreateConsumer(inputs.PollQuery, "continuous"); err != nil {
		return err
	}
	l.setupOps = 4
	l.churn = churner{rate: rgmaChurn, cycle: func(int64) (time.Duration, time.Duration, error) {
		t0 := l.r.now()
		c, err := l.prodClient.CreateConsumer(inputs.ChurnQuery, "continuous",
			func(ts []rgmabin.PoppedTuple) { l.strays.Add(int64(len(ts))) })
		t1 := l.r.now()
		l.r.tr.add(0, -1, "rgmabin.CreateConsumer", t0, t1)
		if err != nil {
			return t0, t1, err
		}
		return t0, t1, c.Close()
	}}
	return nil
}

// ringIndex reads a delivered tuple's seq column and checks its genid
// column against the tuple that was inserted under that seq.
func (l *rgmaLoad) ringIndex(row []string) (int64, bool) {
	if len(row) != 4 {
		return 0, false
	}
	i, err := strconv.Atoi(row[1])
	if err != nil || i < 0 || i >= len(l.tuples.Genid) {
		return 0, false
	}
	genid, err := strconv.Atoi(row[0])
	return int64(i), err == nil && int32(genid) == l.tuples.Genid[i]
}

// onPush runs on the push client's reader goroutine.
func (l *rgmaLoad) onPush(ts []rgmabin.PoppedTuple) {
	now := l.r.now()
	l.pushTotal.Add(int64(len(ts)))
	l.pushMu.Lock()
	defer l.pushMu.Unlock()
	measuring := l.r.measuring()
	for _, t := range ts {
		i, ok := l.ringIndex(t.Row)
		if !ok {
			l.pushBad++
			continue
		}
		l.pushStream.observe(i)
		b := i / inputs.BatchSize
		stamp := time.Duration(l.stamps[b].Load())
		rtt := now - stamp
		if rtt > lateLimit {
			l.pushBad++
		}
		if measuring {
			l.pushInWin++
			l.pushLat = append(l.pushLat, int64(rtt))
		}
		if int64(l.tuples.LastMatch[b]) == i {
			if l.r.tr != nil && b%rgmaTraceN == 0 {
				// The stream position gives the lap of the ring, and so
				// the number of the InsertBatch call that sent this tuple.
				lap := (l.pushStream.n - 1) / int64(len(l.tuples.Matching))
				call := lap*tupleBatches + b
				l.r.tr.add(sendSpanID(call), call, "deliver", stamp, now)
			}
			l.pushWin.release()
		}
	}
}

func (l *rgmaLoad) start() {
	l.wg.Add(3)
	go l.produce()
	go l.poll()
	go func() {
		defer l.wg.Done()
		l.churn.run(l.r, l.stop)
	}()
}

func (l *rgmaLoad) produce() {
	defer l.wg.Done()
	for b := int64(0); ; b++ {
		l.batches = b
		select {
		case <-l.stop:
			return
		default:
		}
		if !l.pushWin.acquire(l.stop) {
			return
		}
		if !l.pollWin.acquire(l.stop) {
			return
		}
		slot := b % tupleBatches
		t0 := l.r.now()
		l.stamps[slot].Store(int64(t0))
		err := l.producer.InsertBatch(l.tuples.Batches[slot])
		if l.r.tr != nil && slot%rgmaTraceN == 0 {
			l.r.tr.addID(sendSpanID(b), 0, b, "rgmabin.InsertBatch", t0, l.r.now())
		}
		if err != nil {
			l.insertErrs++
			return
		}
		if l.tuples.LastMatch[slot] < 0 {
			l.pushWin.release() // nothing of this batch will be pushed
		}
	}
}

// pop performs one poll and checks what it returned.
func (l *rgmaLoad) pop() {
	t0 := l.r.now()
	ts, err := l.poller.Pop()
	now := l.r.now()
	l.r.tr.add(0, -1, "rgmahttp.Pop", t0, now)
	l.pops++
	if err != nil {
		l.popErrs++
		return
	}
	measuring := l.r.measuring()
	if measuring {
		l.popCall = append(l.popCall, int64(now-t0))
		l.popSizes = append(l.popSizes, float64(len(ts)))
		l.pollInWin += int64(len(ts))
	}
	for _, t := range ts {
		i, ok := l.ringIndex(t.Row)
		if !ok {
			l.pollBad++
			continue
		}
		l.pollStream.observe(i)
		if measuring {
			l.pollRTT = append(l.pollRTT, int64(now-time.Duration(l.stamps[i/inputs.BatchSize].Load())))
		}
	}
	// Free one poll slot per whole batch popped.
	after := l.pollN.Add(int64(len(ts)))
	before := after - int64(len(ts))
	for range after/inputs.BatchSize - before/inputs.BatchSize {
		l.pollWin.release()
	}
}

func (l *rgmaLoad) poll() {
	defer l.wg.Done()
	pc := newPacer(float64(time.Second)/float64(pollEvery), l.r.now)
	for j := int64(0); ; j++ {
		_, lag := pc.wait(j)
		select {
		case <-l.stop:
			return
		default:
		}
		if l.r.measuring() {
			l.pollLag = append(l.pollLag, int64(lag))
		}
		l.pop()
	}
}

func (l *rgmaLoad) delivered() int64 { return l.pushTotal.Load() + l.pollN.Load() }

func (l *rgmaLoad) inserted() int64 { return l.batches * inputs.BatchSize }

// expectedPushed counts the matching tuples among the first n inserted.
func (l *rgmaLoad) expectedPushed(n int64) int64 {
	ring, m := int64(l.tuples.Len()), l.tuples.Matching
	full := n / ring * int64(len(m))
	rest := int32(n % ring)
	for _, i := range m {
		if i >= rest {
			break
		}
		full++
	}
	return full
}

func (l *rgmaLoad) halt() {
	close(l.stop)
	l.wg.Wait()
	n := l.inserted()
	pushed := l.expectedPushed(n)
	for deadline := time.Now().Add(lateLimit); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if l.pollN.Load() < n {
			l.pop()
		}
		if l.pollN.Load() >= n && l.pushTotal.Load() >= pushed {
			break
		}
	}
	if st, err := l.httpClient.Stats(); err != nil {
		l.statsErr = err
	} else {
		l.dropped = st.TuplesDropped
	}
}

func (l *rgmaLoad) tally() tally {
	n := l.inserted()
	pushed := l.expectedPushed(n)
	l.pushMu.Lock()
	defer l.pushMu.Unlock()
	streamFailed := l.pushStream.failures(pushed) + l.pollStream.failures(n)
	t := tally{
		attempted:  l.batches + l.insertErrs + l.setupOps + l.churn.ops + l.pops + pushed + n,
		failed:     l.insertErrs + l.churn.errs + l.popErrs + streamFailed + l.pushBad + l.pollBad + l.strays.Load() + int64(l.dropped),
		deliveries: l.pushInWin + l.pollInWin,
		rtt:        l.pushLat,
		subscribe:  l.churn.samples,
		lag:        l.pollLag,
	}
	if l.statsErr != nil {
		t.failed++
	}
	if t.failed > 0 {
		t.detail = fmt.Sprintf(" insert errors %d, create-consumer errors %d, pop errors %d, missing/repeated/misordered tuples %d, corrupt/late %d, strays %d, poll-buffer drops %d, stats error %v;",
			l.insertErrs, l.churn.errs, l.popErrs, streamFailed, l.pushBad+l.pollBad, l.strays.Load(), l.dropped, l.statsErr)
	}
	calls, polls := sortedMillis(l.popCall), sortedMillis(l.pollRTT)
	t.extra = map[string]metric{
		"rgmahttp.pop_call_us_p50": {Value: percentile(calls, 0.5) * 1e3, Unit: "us", Samples: len(calls)},
		"rgmahttp.tuples_per_pop":  {Value: mean(l.popSizes), Unit: "count", Samples: len(l.popSizes)},
		"rgmahttp.poll_rtt_p50_ms": {Value: percentile(polls, 0.5), Unit: "ms", Samples: len(polls)},
	}
	return t
}

func (l *rgmaLoad) close() {
	if l.prodClient != nil {
		_ = l.prodClient.Close()
	}
	if l.pushClient != nil {
		_ = l.pushClient.Close()
	}
}

func rgmaWorkload() *workload {
	return &workload{
		name:     "rgma_stream",
		why:      "closed loop on rgmad: 1 rgmabin producer of 16-insert batches, 1 push consumer (half the tuples), 1 rgmahttp consumer popped every 100 ms: sqlmini, rgmacore insert, push merge, Pop beside Insert",
		daemon:   "rgmad",
		open:     openRGMA,
		sendSpan: "rgmabin.InsertBatch", dialSpan: "rgmabin.Dial", registerSpan: "rgmabin.CreateConsumer",
	}
}
