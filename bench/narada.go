package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/bench/inputs"
	"gridmon/internal/jms"
	"gridmon/internal/message"
)

// naradaSpec describes a naradad workload; the four of them differ only
// in these numbers.
type naradaSpec struct {
	dest message.Destination
	pubs int  // publisher goroutines, one connection each
	sync bool // PublishSync (wait for the PubAck) instead of Publish

	// rate > 0 makes the publisher open loop at that many messages/s.
	// Otherwise inflight bounds the publishes sent but not yet fully
	// delivered (closed loop).
	rate     float64
	inflight int

	subs     int  // subscriptions, spread evenly over subConns connections
	subConns int  //
	distinct bool // subscription k selects "id = k"; otherwise all share the paper's selector
	selector bool // false: no selector at all (queue consumer)

	// The churner removes and re-registers one of churnSet never-matching
	// selectors churnRate times a second. With churnLoaded it does so on
	// the loaded destination, from subscriber connection 0, as match_churn
	// asks; otherwise on an idle topic of its own from publisher connection
	// 0, where the reply does not queue behind the client's own deliveries.
	churnRate   float64
	churnLoaded bool

	// traceEvery samples one message in so many for span recording.
	traceEvery int64
}

const (
	// syncEvery makes every 64th publish of a closed-loop publisher
	// wait for its PubAck. naradad acknowledges plain publishes too, and
	// drops a connection with 256 frames queued for it; at 30 000
	// publishes/s its writer goroutine for the publisher's connection need
	// only wait 8 ms for a CPU for that many PubAcks to pile up, and the
	// daemon then drops its own publisher as a slow consumer (seen once in
	// about 50 match_churn runs). Waiting for one PubAck in 64 keeps the
	// queue short without changing what the workload measures.
	syncEvery  = 64
	churnSet   = 100
	churnTopic = "churn"
	// stampRing and perMsgRing are sized far above any in-flight bound, so
	// a slot is never reused while its message is still travelling.
	stampRing  = 1 << 16
	perMsgRing = 1 << 10
)

// recvConn is the receiving side of one subscriber connection. The jms
// client invokes every listener of a connection from its one reader
// goroutine; mu additionally orders that goroutine against the harness
// reading the books at the end.
type recvConn struct {
	mu      sync.Mutex
	streams []stream
	perMsg  []int32 // deliveries seen so far of each in-flight message
	full    int32   // deliveries of one message this connection expects
	lat     []int64
	n       int64
	bad     int64        // corrupt, late, or delivered to a subscription that did not select it
	total   atomic.Int64 // every delivery, for the drain wait
}

type naradaLoad struct {
	r  *run
	sp naradaSpec

	pubConns []*jms.Connection
	subConns []*jms.Connection
	grids    []*inputs.Grid
	recv     []*recvConn

	stamps    []atomic.Int64 // send stamp (or due time) by sequence number
	connsLeft []atomic.Int32 // subscriber connections yet to receive all of a message
	// perMsgConns is how many subscriber connections one message reaches.
	perMsgConns int32
	win         window

	stop    chan struct{}
	wg      sync.WaitGroup
	sent    []int64 // per publisher, written by it alone and read after wg.Wait
	pubErrs atomic.Int64
	lag     []int64 // publisher 0's pacer lateness inside the window

	churn    churner
	churnIDs []int64
	setupOps int64
	strays   atomic.Int64 // deliveries to a churn selector no message matches
	dead     []string     // connections found closed at the end of the run
}

func openNarada(sp naradaSpec) func(r *run, d *daemon) (load, error) {
	return func(r *run, d *daemon) (load, error) {
		l := &naradaLoad{r: r, sp: sp, stop: make(chan struct{})}
		if err := l.connect(d.addr); err != nil {
			l.close()
			return nil, err
		}
		return l, nil
	}
}

func (l *naradaLoad) dial(addr, id string) (*jms.Connection, error) {
	t0 := l.r.now()
	c, err := jms.Dial(addr, id)
	l.r.tr.add(0, -1, "jms.Dial", t0, l.r.now())
	return c, err
}

func (l *naradaLoad) subscribe(c *jms.Connection, dest message.Destination, sel string, fn jms.MessageListener) (int64, error) {
	t0 := l.r.now()
	id, err := c.Subscribe(dest, sel, fn)
	l.r.tr.add(0, -1, "jms.Subscribe", t0, l.r.now())
	l.setupOps++
	return id, err
}

func (l *naradaLoad) connect(addr string) error {
	sp := l.sp
	for i := range sp.subConns {
		c, err := l.dial(addr, fmt.Sprintf("bench-sub-%d", i))
		if err != nil {
			return err
		}
		l.subConns = append(l.subConns, c)
		rc := &recvConn{perMsg: make([]int32, perMsgRing), full: 1}
		if !sp.distinct {
			// Every subscription receives every message: this connection
			// holds subscriptions i, i+subConns, …
			rc.full = int32((sp.subs - i + sp.subConns - 1) / sp.subConns)
		}
		l.recv = append(l.recv, rc)
	}
	for p := range sp.pubs {
		c, err := l.dial(addr, fmt.Sprintf("bench-pub-%d", p))
		if err != nil {
			return err
		}
		l.pubConns = append(l.pubConns, c)
		l.grids = append(l.grids, inputs.NewGrid(l.r.seed, p, sp.dest))
	}
	l.sent = make([]int64, sp.pubs)
	l.stamps = make([]atomic.Int64, stampRing)
	l.connsLeft = make([]atomic.Int32, perMsgRing)
	l.perMsgConns = 1
	if !sp.distinct {
		l.perMsgConns = int32(min(sp.subConns, sp.subs))
	}
	for i := range l.connsLeft {
		l.connsLeft[i].Store(l.perMsgConns)
	}
	if sp.rate == 0 {
		l.win = newWindow(sp.inflight)
	}

	P := int64(sp.pubs)
	for k := range sp.subs {
		rc := l.recv[k%sp.subConns]
		sel := ""
		if sp.distinct {
			sel = inputs.DistinctSelector(k)
			// Subscription k sees its generator once per lap of the ring.
			rc.streams = append(rc.streams, stream{first: int64(l.grids[0].Pos[k]), stride: inputs.Generators})
		} else {
			if sp.selector {
				sel = inputs.SharedSelector
			}
			for p := range P {
				rc.streams = append(rc.streams, stream{first: p, stride: P})
			}
		}
		fn := l.listener(rc, k)
		if l.r.tamper != nil {
			fn = tampered(fn, l.r.tamper)
		}
		if _, err := l.subscribe(l.subConns[k%sp.subConns], sp.dest, sel, fn); err != nil {
			return err
		}
	}

	churnDest, churnConn := message.Topic(churnTopic), l.pubConns[0]
	if sp.churnLoaded {
		churnDest, churnConn = sp.dest, l.subConns[0]
	}
	stray := func(*message.Message) { l.strays.Add(1) }
	for j := range churnSet {
		id, err := l.subscribe(churnConn, churnDest, inputs.ChurnSelector(j), stray)
		if err != nil {
			return err
		}
		l.churnIDs = append(l.churnIDs, id)
	}
	l.churn = churner{rate: sp.churnRate, cycle: func(j int64) (time.Duration, time.Duration, error) {
		c, slot := churnConn, j%churnSet
		if err := c.Unsubscribe(l.churnIDs[slot]); err != nil {
			return 0, 0, err
		}
		t0 := l.r.now()
		id, err := c.Subscribe(churnDest, inputs.ChurnSelector(int(slot)), stray)
		t1 := l.r.now()
		l.r.tr.add(0, -1, "jms.Subscribe", t0, t1)
		l.churnIDs[slot] = id
		return t0, t1, err
	}}
	return nil
}

// listener builds subscription k's callback.
func (l *naradaLoad) listener(rc *recvConn, k int) jms.MessageListener {
	local := k / l.sp.subConns // index among this connection's subscriptions
	P := int64(l.sp.pubs)
	return func(m *message.Message) {
		now := l.r.now()
		rc.total.Add(1)
		rc.mu.Lock()
		defer rc.mu.Unlock()

		g, slot, ok := l.identify(m)
		if !ok {
			rc.bad++
			return
		}
		if l.sp.distinct {
			if int(l.grids[0].ID[slot]) != k {
				rc.bad++ // delivered on a selector that does not match it
			}
			rc.streams[local].observe(g)
		} else {
			rc.streams[int64(local)*P+g%P].observe(g)
		}
		stamp := time.Duration(l.stamps[g%stampRing].Load())
		rtt := now - stamp
		if rtt > lateLimit {
			rc.bad++
		}
		if l.r.measuring() {
			rc.n++
			rc.lat = append(rc.lat, int64(rtt))
		}
		if l.r.tr != nil && g%l.sp.traceEvery == 0 {
			l.r.tr.add(sendSpanID(g), g, "deliver", stamp, now)
		}
		// The message is complete on this connection once each of its
		// subscriptions has it, and complete altogether once every
		// connection has; that frees one in-flight slot.
		if rc.full > 1 {
			i := g % perMsgRing
			if rc.perMsg[i]++; rc.perMsg[i] < rc.full {
				return
			}
			rc.perMsg[i] = 0
		}
		if l.win != nil {
			i := g % perMsgRing
			if l.connsLeft[i].Add(-1) == 0 {
				l.connsLeft[i].Store(l.perMsgConns)
				l.win.release()
			}
		}
	}
}

// tampered wraps a listener so that a test can drop or repeat chosen
// deliveries on their way to the checker.
func tampered(fn jms.MessageListener, copies func(seq int64) int) jms.MessageListener {
	return func(m *message.Message) {
		v, _ := m.MapGet("seq")
		seq, _ := v.AsLong()
		for range copies(seq) {
			fn(m)
		}
	}
}

// identify reads the sequence number out of a delivered message and
// checks the payload against the ring slot that was sent under it.
func (l *naradaLoad) identify(m *message.Message) (g, slot int64, ok bool) {
	v, ok := m.MapGet("seq")
	if !ok {
		return 0, 0, false
	}
	g, err := v.AsLong()
	if err != nil || g < 0 {
		return 0, 0, false
	}
	P := int64(l.sp.pubs)
	grid := l.grids[g%P]
	slot = (g / P) % inputs.Generators
	id, _ := m.MapGet("id")
	power, _ := m.MapGet("power_kw")
	return g, slot, id.Equal(message.Int(grid.ID[slot])) && power.Equal(message.Float(grid.Power[slot])) && m.MapLen() == 16
}

func (l *naradaLoad) start() {
	for p := range l.pubConns {
		l.wg.Add(1)
		go l.publisher(p)
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.churn.run(l.r, l.stop)
	}()
}

func (l *naradaLoad) publisher(p int) {
	defer l.wg.Done()
	c, grid, P := l.pubConns[p], l.grids[p], int64(l.sp.pubs)
	name := "jms.Publish"
	publish := c.Publish
	if l.sp.sync {
		name, publish = "jms.PublishSync", c.PublishSync
	}
	var pc *pacer
	if l.sp.rate > 0 {
		pc = newPacer(l.sp.rate, l.r.now)
	}
	for s := int64(0); ; s++ {
		l.sent[p] = s
		select {
		case <-l.stop:
			return
		default:
		}
		if l.win != nil && !l.win.acquire(l.stop) {
			return
		}
		g := s*P + int64(p)
		m := grid.Msgs[s%inputs.Generators]
		m.MapSet("seq", message.Int(int32(g)))
		stamp := l.r.now()
		if pc != nil {
			due, lag := pc.wait(s)
			stamp = due
			if l.r.measuring() {
				l.lag = append(l.lag, int64(lag))
			}
		}
		l.stamps[g%stampRing].Store(int64(stamp))
		send := publish
		if pc == nil && s%syncEvery == syncEvery-1 {
			send = c.PublishSync
		}
		t0 := l.r.now()
		err := send(m)
		if l.r.tr != nil && g%l.sp.traceEvery == 0 {
			l.r.tr.addID(sendSpanID(g), 0, g, name, t0, l.r.now())
		}
		if err != nil {
			l.pubErrs.Add(1)
			return
		}
	}
}

// expected is the number of deliveries subscription-stream i of rc should
// have seen, given what each publisher sent.
func (l *naradaLoad) expected(st *stream) int64 {
	if !l.sp.distinct {
		return l.sent[st.first] // first is the publisher's number
	}
	if l.sent[0] <= st.first {
		return 0
	}
	return (l.sent[0] - st.first + st.stride - 1) / st.stride
}

func (l *naradaLoad) expectedTotal() int64 {
	var n int64
	for _, rc := range l.recv {
		for i := range rc.streams {
			n += l.expected(&rc.streams[i])
		}
	}
	return n
}

func (l *naradaLoad) delivered() (n int64) {
	for _, rc := range l.recv {
		n += rc.total.Load()
	}
	return n
}

func (l *naradaLoad) halt() {
	close(l.stop)
	l.wg.Wait()
	want := l.expectedTotal()
	for deadline := time.Now().Add(lateLimit); l.delivered() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	// A connection the daemon dropped (its slow-consumer policy) fails
	// silently on the client side; ask each one.
	for i, c := range append(slices.Clone(l.subConns), l.pubConns...) {
		if err := c.Ping(); err != nil {
			l.dead = append(l.dead, fmt.Sprintf("connection %d of %d subscriber + %d publisher: %v", i, len(l.subConns), len(l.pubConns), err))
		}
	}
}

func (l *naradaLoad) tally() tally {
	t := tally{lag: l.lag, subscribe: l.churn.samples}
	if l.sp.rate == 0 {
		t.lag = l.churn.lag
	}
	var published, streamFailed, bad int64
	for _, s := range l.sent {
		published += s
	}
	var where []string // which connection's streams failed, for the post-mortem
	for c, rc := range l.recv {
		rc.mu.Lock()
		short := 0
		for i := range rc.streams {
			if f := rc.streams[i].failures(l.expected(&rc.streams[i])); f > 0 {
				streamFailed += f
				short++
			}
		}
		if short > 0 {
			where = append(where, fmt.Sprintf("%d streams of subscriber connection %d", short, c))
		}
		bad += rc.bad
		t.deliveries += rc.n
		t.rtt = append(t.rtt, rc.lat...)
		rc.mu.Unlock()
	}
	pubErrs, strays := l.pubErrs.Load(), l.strays.Load()
	t.attempted = published + pubErrs + l.setupOps + l.churn.ops + l.expectedTotal()
	t.failed = pubErrs + l.churn.errs + streamFailed + bad + strays + int64(len(l.dead))
	if t.failed > 0 {
		t.detail = fmt.Sprintf(" publish errors %d, subscribe errors %d, missing/repeated/misordered deliveries %d (%v), corrupt/late/mismatched %d, strays %d, dropped connections %q, published %d, free in-flight slots %d;",
			pubErrs, l.churn.errs, streamFailed, where, bad, strays, l.dead, published, len(l.win))
	}
	return t
}

func (l *naradaLoad) close() {
	for _, c := range l.pubConns {
		_ = c.Close()
	}
	for _, c := range l.subConns {
		_ = c.Close()
	}
}

// churner times a registration under load at a fixed rate. Every
// workload runs one, so subscribe_p50_ms exists everywhere: it is the
// write side of whatever index the workload's reads go through.
type churner struct {
	rate float64
	// cycle performs churn number j and returns when its registration
	// call began and ended.
	cycle func(j int64) (t0, t1 time.Duration, err error)

	samples, lag []int64
	ops, errs    int64
}

func (c *churner) run(r *run, stop <-chan struct{}) {
	pc := newPacer(c.rate, r.now)
	for j := int64(0); ; j++ {
		_, lag := pc.wait(j)
		select {
		case <-stop:
			return
		default:
		}
		t0, t1, err := c.cycle(j)
		c.ops++
		if err != nil {
			c.errs++
			return
		}
		if r.measuring() {
			c.samples = append(c.samples, int64(t1-t0))
			c.lag = append(c.lag, int64(lag))
		}
	}
}

// The four naradad workloads. nproc sizes the connection counts, as the
// host's core count bounds what one load generator can honestly offer.
func naradaWorkloads() []*workload {
	nproc := runtime.NumCPU()
	mk := func(name, why string, dataDir, oneCore bool, sp naradaSpec) *workload {
		send := "jms.Publish"
		if sp.sync {
			send = "jms.PublishSync"
		}
		return &workload{
			name: name, why: why, daemon: "naradad", dataDir: dataDir, oneCore: oneCore, open: openNarada(sp),
			sendSpan: send, dialSpan: "jms.Dial", registerSpan: "jms.Subscribe",
		}
	}
	return []*workload{
		mk("grid_paced",
			"open loop, 4000 msg/s, 1 publisher to 1 subscriber with the paper's selector: per-message transport cost (wire, jms syscalls, wake-ups); fan-out engine, index and WAL bypassed",
			false, true, naradaSpec{
				dest: message.Topic("power"), pubs: 1, rate: 4000,
				subs: 1, subConns: 1, selector: true,
				churnRate: 50, traceEvery: 1,
			}),
		mk("fanout_wide",
			"closed loop, 4 publishes in flight, 1 publisher to 1000 subscriptions on one selector: broker fan-out plan, fanout pool, DeliverBatch coalescing, ack ingestion; matching and ingress nearly idle",
			false, false, naradaSpec{
				dest: message.Topic("power"), pubs: 1, inflight: 4,
				subs: 1000, subConns: nproc, selector: true,
				churnRate: 50, traceEvery: 8,
			}),
		mk("match_churn",
			"closed loop, 64 in flight, 1000 distinct selectors each matching 1 message in 1000, beside 200 resubscribes/s: selector, predindex and snapshot routing, read side against write side",
			false, false, naradaSpec{
				dest: message.Topic("power"), pubs: 1, inflight: 64,
				subs: inputs.Generators, subConns: nproc, distinct: true, selector: true,
				churnRate: 200, churnLoaded: true, traceEvery: 4,
			}),
		mk("queue_wal",
			"closed loop, nproc PublishSync publishers to a WAL-journalled queue (no fsync), 1 consumer: queue enqueue/drain under the shard lock, wal group commit, brokerwal encoding, PubAck round trip",
			true, true, naradaSpec{
				dest: message.Queue("jobs"), pubs: nproc, sync: true, inflight: 128,
				subs: 1, subConns: 1,
				churnRate: 50, traceEvery: 2,
			}),
	}
}
