// Package latency collects per-operation latency samples and reports
// the tail percentiles load tools print at exit (cmd/gridpub,
// cmd/rgmaload). A Recorder is single-goroutine by design — each
// worker owns one and the driver merges them after the workers join —
// so the record path is an append, not a lock.
package latency

import (
	"fmt"
	"slices"
	"time"
)

// DefaultCap bounds a Recorder's retained samples. A bounded load run
// (tens of thousands of operations per worker) retains everything and
// the percentiles are exact; past the cap, reservoir sampling keeps a
// uniform subset so an unbounded run's summary stays representative
// without unbounded memory.
const DefaultCap = 1 << 16

// Recorder accumulates duration samples for one worker. Not safe for
// concurrent use; merge recorders after their goroutines join.
type Recorder struct {
	samples []int64 // ns, uniformly sampled once past cap
	count   uint64  // all samples ever recorded
	max     int64
	cap     int
	rng     uint64 // xorshift state for reservoir replacement
}

// NewRecorder returns a Recorder retaining at most capacity samples
// (0 = DefaultCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{cap: capacity, rng: 0x9e3779b97f4a7c15}
}

// Record adds one sample (Algorithm R once the reservoir is full).
func (r *Recorder) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	r.count++
	if ns > r.max {
		r.max = ns
	}
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, ns)
		return
	}
	// xorshift64*: cheap, deterministic, no global rand contention.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if i := r.rng % r.count; i < uint64(len(r.samples)) {
		r.samples[i] = ns
	}
}

// Merge folds another recorder's retained samples into this one
// (truncating to this recorder's cap). Counts and maxima always merge
// exactly; percentiles stay exact as long as the combined retained
// samples fit the cap.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil {
		return
	}
	r.count += o.count
	if o.max > r.max {
		r.max = o.max
	}
	for _, ns := range o.samples {
		if len(r.samples) < r.cap {
			r.samples = append(r.samples, ns)
		} else {
			r.rng ^= r.rng << 13
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			r.samples[r.rng%uint64(len(r.samples))] = ns
		}
	}
}

// Summary is the percentile report for one recorder.
type Summary struct {
	Count uint64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize sorts the retained samples and reads the nearest-rank
// percentiles. A recorder with no samples yields the zero Summary.
func (r *Recorder) Summarize() Summary {
	if len(r.samples) == 0 {
		return Summary{}
	}
	sorted := slices.Clone(r.samples)
	slices.Sort(sorted)
	rank := func(q float64) time.Duration {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return time.Duration(sorted[i])
	}
	return Summary{
		Count: r.count,
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
		Max:   time.Duration(r.max),
	}
}

// String renders the summary the way the load tools log it.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond), s.Count)
}
