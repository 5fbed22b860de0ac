package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// Phases of a measured pass. Load goroutines run through all of them;
// only deliveries and calls that land in phaseWindow are measured, and
// every delivery of every phase is checked.
const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseDrain
)

const (
	// defaultWarmup runs the load unrecorded before the window opens, so
	// caches, pools and the daemon's heap reach their working size first.
	// It is a fixed length, so it is not part of setup_s.
	defaultWarmup = 2 * time.Second
	// lateLimit is the age beyond which a delivery counts as failed, and
	// so also how long a drained run waits for stragglers.
	lateLimit = time.Second
	// sliceLength cuts the window into pieces; see slice.
	sliceLength = time.Second
	// defaultSetups is how many times a run sets the workload up (spawn,
	// dial, register, generate); setup_s is their median.
	defaultSetups = 5
)

// plan sizes one workload's run.
type plan struct {
	seconds float64       // measured time; a traced run divides it between its passes
	warmup  time.Duration // unrecorded load before each window
	setups  int           // set-ups timed, the measured passes' own included
	trace   bool          // add the traced pass and the layer replays
}

// run is the state one pass shares between the harness and its load.
type run struct {
	l    layout
	seed int64
	pin  cpuMask // non-zero: the CPUs both processes are confined to
	tr   *tracer // nil in the untraced pass
	// tamper, set only by tests, says how many copies of message seq reach
	// the checker (0 drops it).
	tamper func(seq int64) int
	epoch  time.Time
	phase  atomic.Int32
}

func (r *run) now() time.Duration { return time.Since(r.epoch) }
func (r *run) measuring() bool    { return r.phase.Load() == phaseWindow }

// load is a workload connected to its daemon.
type load interface {
	// start launches the senders, pollers and churner.
	start()
	// halt stops them, waits until they have returned, then waits up to
	// lateLimit for the deliveries still in flight.
	halt()
	// delivered is the running total of deliveries, readable at any time.
	delivered() int64
	// tally closes the books; call it once, after halt.
	tally() tally
	// close drops the client connections.
	close()
}

// tally is what a load observed. Counts cover the whole pass; samples
// cover the window.
type tally struct {
	attempted int64 // operations issued + deliveries expected
	failed    int64 // errors + missing, repeated, misordered, corrupt, late or stray deliveries
	detail    string

	deliveries int64   // handed to callbacks (or returned by Pop) inside the window
	rtt        []int64 // ns, send stamp (or due time) → callback
	subscribe  []int64 // ns, Subscribe / CreateConsumer under load
	lag        []int64 // ns, lateness of the workload's paced loop
	extra      map[string]metric
}

// workload is one named traffic mix.
type workload struct {
	name, why string
	daemon    string // naradad | rgmad
	dataDir   bool
	// oneCore confines the load generator and the daemon to one CPU for
	// this workload; see README "One core".
	oneCore bool
	// open dials, registers and generates inputs: everything between a
	// listening daemon and the first operation.
	open   func(r *run, d *daemon) (load, error)
	tamper func(seq int64) int // see run.tamper
	// Span names of the client calls in the three roles the per-layer
	// table reports for every workload.
	sendSpan, dialSpan, registerSpan string
}

// metric is one reported number. Samples is the number of observations
// behind a percentile (0 where the value is a ratio of totals).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// passResult is one measured pass.
type passResult struct {
	setup   time.Duration // spawn → load ready
	start   time.Duration // spawn → daemon listening
	elapsed time.Duration // window length as measured
	slices  []slice       // the window cut into one-second pieces
	t       tally
	p0, p1  procSample
	selfCPU time.Duration // load generator's own user+system time over the window
	mallocs uint64        // load generator's allocations over the window
	open    time.Duration // epoch-relative time at which set-up ended
}

// slice is one piece of the window. Rates are reported as the median over
// slices, so that a burst of interference from the shared host moves one
// slice, not the result.
type slice struct {
	seconds    float64
	deliveries int64
	cpuUs      float64 // daemon CPU time
}

func (w *workload) stderrPath(l layout) string {
	return filepath.Join(l.out, w.daemon+"-"+w.name+".stderr.log")
}

// setUp spawns the daemon and connects the load.
func (w *workload) setUp(r *run) (*daemon, load, time.Duration, error) {
	begin := time.Now()
	d, err := startDaemon(r.l, w.daemon, w.dataDir, w.stderrPath(r.l), r.pin)
	if err != nil {
		return nil, nil, 0, err
	}
	ld, err := w.open(r, d)
	if err != nil {
		d.stop()
		return nil, nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return d, ld, time.Since(begin), nil
}

// setUpOnly performs one set-up and tears it down again, for the set-up
// time sample alone.
func (w *workload) setUpOnly(l layout, seed int64, pin cpuMask) (took, daemonStart time.Duration, err error) {
	r := &run{l: l, seed: seed, pin: pin, tamper: w.tamper, epoch: time.Now()}
	d, ld, took, err := w.setUp(r)
	if err != nil {
		return 0, 0, err
	}
	ld.close()
	d.stop()
	return took, d.start, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass sets the workload up, warms it, measures one window and verifies
// every delivery.
func (w *workload) pass(l layout, seed int64, pin cpuMask, warmup, window time.Duration, tr *tracer) (passResult, error) {
	r := &run{l: l, seed: seed, pin: pin, tr: tr, tamper: w.tamper, epoch: time.Now()}
	var res passResult
	d, ld, took, err := w.setUp(r)
	if err != nil {
		return res, err
	}
	defer d.stop()
	defer ld.close()
	res.setup, res.start, res.open = took, d.start, r.now()

	ld.start()
	time.Sleep(warmup)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	if res.p0, err = readProc(d.cmd.Process.Pid); err != nil {
		ld.halt()
		return res, fmt.Errorf("%s: %s gone before the window: %w", w.name, w.daemon, err)
	}
	t0 := time.Now()
	r.phase.Store(phaseWindow)
	prevT, prevD, prevP := t0, ld.delivered(), res.p0
	for end := t0.Add(window); err == nil; {
		time.Sleep(min(sliceLength, time.Until(end)))
		now, n := time.Now(), ld.delivered()
		if res.p1, err = readProc(d.cmd.Process.Pid); err == nil {
			res.slices = append(res.slices, slice{now.Sub(prevT).Seconds(), n - prevD, cpuBetween(prevP, res.p1)})
		}
		prevT, prevD, prevP = now, n, res.p1
		if !now.Before(end) {
			break
		}
	}
	r.phase.Store(phaseDrain)
	res.elapsed = time.Since(t0)
	res.selfCPU = selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs

	ld.halt()
	res.t = ld.tally()
	if err != nil || !d.alive() {
		res.t.failed++
		res.t.detail += fmt.Sprintf(" %s exited during the run (see %s);", w.daemon, w.stderrPath(l))
	}
	return res, nil
}
