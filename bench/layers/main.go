// Command layers replays the benchmark's generated inputs through one
// layer at a time, in process and on a single goroutine, and prints ns/op
// and allocs/op per layer as JSON. The end-to-end benchmark runs it as a
// child process after a traced pass; it is a separate program so that a
// refactor of an internal API can break a replay without stopping the
// end-to-end run from compiling.
//
// A replay is not a micro-benchmark of a hand-picked case: every input
// comes from bench/inputs under the run's seed, the same generator the
// loopback workloads send from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric mirrors the end-to-end benchmark's JSON shape.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// replays is the number of timed replays; each gets an equal share of the
// budget.
const replays = 23

type replayer struct {
	slot time.Duration
	out  map[string]metric
}

// round describes one timed replay.
type round struct {
	// maxN caps the operations per round (0 = no cap), for replays whose
	// state grows until after runs.
	maxN int
	// before prepares n operations, untimed.
	before func(n int)
	// op is the timed operation; i counts up across rounds.
	op func(i int)
	// after restores the state, untimed.
	after func()
}

// time runs rounds of op until the replay's slot is spent and returns the
// median round's ns/op and allocations/op, with the operations timed.
func (r *replayer) time(rd round) (ns, allocs float64, ops int) {
	run := func(n, base int) (time.Duration, uint64) {
		if rd.before != nil {
			rd.before(n)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := range n {
			rd.op(base + i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if rd.after != nil {
			rd.after()
		}
		return d, m1.Mallocs - m0.Mallocs
	}
	// Size a round at an eighth of the slot from a short trial.
	trialN := 16
	if rd.maxN > 0 {
		trialN = min(trialN, rd.maxN)
	}
	d, _ := run(trialN, 0)
	perOp := max(d/time.Duration(trialN), time.Nanosecond)
	n := max(int(r.slot/8/perOp), 1)
	if rd.maxN > 0 {
		n = min(n, rd.maxN)
	}
	var nsPerOp, allocsPerOp []float64
	base := trialN
	// The slot is wall time, untimed preparation included, so that the
	// replays together keep to the budget.
	for start := time.Now(); time.Since(start) < r.slot || len(nsPerOp) < 3; {
		d, mallocs := run(n, base)
		base += n
		ops += n
		nsPerOp = append(nsPerOp, float64(d)/float64(n))
		allocsPerOp = append(allocsPerOp, float64(mallocs)/float64(n))
	}
	return medianOf(nsPerOp), medianOf(allocsPerOp), ops
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// ns records a replay under name in nanoseconds per operation.
func (r *replayer) ns(name string, rd round) (allocs float64) {
	v, allocs, ops := r.time(rd)
	r.out[name] = metric{Value: v, Unit: "ns", Samples: ops}
	return allocs
}

// us records a replay under name in microseconds per operation.
func (r *replayer) us(name string, rd round) {
	v, _, ops := r.time(rd)
	r.out[name] = metric{Value: v / 1e3, Unit: "us", Samples: ops}
}

func main() {
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	budget := flag.Duration("budget", 3*time.Second, "total time to spend replaying")
	flag.Parse()
	r := &replayer{slot: *budget / replays, out: map[string]metric{}}
	naradaReplays(r, *seed)
	walReplays(r, *seed)
	rgmaReplays(r, *seed)
	if err := json.NewEncoder(os.Stdout).Encode(r.out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}
