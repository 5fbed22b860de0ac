package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"gridmon/bench/inputs"
)

// def declares one metric of the benchmark's contract. BENCHMARK.json is
// generated from these tables ("bench manifest"), and a contract run
// prints exactly the metrics of one of them.
type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the window the driver measures; see README "Sizing".
const runSeconds = 15

// endToEnd are the numbers a user of the daemons would see, with the
// share by which each may worsen before a change is a regression. Every
// bound is the contract's maximum: on the shared 2-vCPU host the benchmark
// was sized on, the quartile spread of ten runs is 1-6 % in a quiet quarter
// of an hour and 7-19 % in a noisy one (README "Bounds and repeatability"),
// and a bound has to hold in both.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"rtt_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_us_per_delivery", "us", "lower", 0.25},
	{"server_peak_rss_mb", "MB", "lower", 0.25},
	{"subscribe_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer numbers every workload reports in a
// traced run. README "Layer map" says which end-to-end metric each should
// move, on which workload.
var perLayer = []def{
	// The daemon from outside: /proc deltas over the untraced window.
	{Name: "daemon.read_syscalls_per_delivery", Unit: "count", Better: "lower"},
	{Name: "daemon.write_syscalls_per_delivery", Unit: "count", Better: "lower"},
	{Name: "daemon.bytes_out_per_delivery", Unit: "B", Better: "lower"},
	{Name: "daemon.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "daemon.start_ms", Unit: "ms", Better: "lower"},
	// The load generator's own cost.
	{Name: "loadgen.cpu_us_per_delivery", Unit: "us", Better: "lower"},
	{Name: "loadgen.allocs_per_delivery", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.rtt_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.rtt_unattributed_us", Unit: "us", Better: "lower"},
	// Spans around client calls, traced pass.
	{Name: "client.send_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.dial_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.register_us_p50", Unit: "us", Better: "lower"},
	// Layer replays (bench/layers), in process, single goroutine.
	{Name: "wire.encode_publish_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_publish_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_publish_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.encode_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "selector.compile_us", Unit: "us", Better: "lower"},
	{Name: "selector.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "predindex.build_us_1000", Unit: "us", Better: "lower"},
	{Name: "predindex.candidates_ns_1000", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_ns_fan1", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_ns_fan1000", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_allocs_fan1000", Unit: "count", Better: "lower"},
	{Name: "broker.publish_ns_sel1000", Unit: "ns", Better: "lower"},
	{Name: "broker.ack_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.subscribe_us_sel1000", Unit: "us", Better: "lower"},
	{Name: "broker.queue_publish_ns", Unit: "ns", Better: "lower"},
	{Name: "fanout.run_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.appends_per_write", Unit: "count", Better: "higher"},
	{Name: "brokerwal.queue_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlmini.parse_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "sqlmini.where_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "rgmacore.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "rgmacore.pop_ns_per_tuple", Unit: "ns", Better: "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []def    `json:"end_to_end"`
		PerLayer   []def    `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}

func workloads() []*workload { return append(naradaWorkloads(), rgmaWorkload()) }

// result is everything one workload's run produced.
type result struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Detail    string            `json:"detail,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs one workload: several set-ups, the untraced window, and
// in a traced run also the traced window and the layer replays.
func measure(l layout, w *workload, seed int64, pl plan, build time.Duration) (*result, error) {
	res := &result{Name: w.name, Why: w.why, Metrics: map[string]metric{}}
	window := time.Duration(pl.seconds * float64(time.Second))
	tracedWindow, replayBudget := time.Duration(0), time.Duration(0)
	passes := 1
	if pl.trace {
		window, tracedWindow, replayBudget = window*45/100, window*30/100, window*20/100
		passes = 2
	}

	_ = os.Remove(w.stderrPath(l)) // one run's daemon log per file
	var pin cpuMask
	unpin := func() {}
	if w.oneCore {
		var err error
		if pin, unpin, err = confineToOneCPU(); err != nil {
			return nil, err
		}
		defer unpin()
	}

	var setupS, startMs []float64
	for range pl.setups - passes {
		took, start, err := w.setUpOnly(l, seed, pin)
		if err != nil {
			return nil, err
		}
		setupS, startMs = append(setupS, took.Seconds()), append(startMs, ms(start))
	}
	u, err := w.pass(l, seed, pin, pl.warmup, window, nil)
	if err != nil {
		return nil, err
	}
	setupS, startMs = append(setupS, u.setup.Seconds()), append(startMs, ms(u.start))
	res.Attempted, res.Failed, res.Detail = u.t.attempted, u.t.failed, u.t.detail

	m := res.Metrics
	D, T := float64(u.t.deliveries), u.elapsed.Seconds()
	rtt, sub, lag := sortedMillis(u.t.rtt), sortedMillis(u.t.subscribe), sortedMillis(u.t.lag)
	du, ds := float64(u.p1.utime-u.p0.utime), float64(u.p1.stime-u.p0.stime)

	var rate, cpu []float64
	for _, sl := range u.slices {
		rate = append(rate, per(float64(sl.deliveries), sl.seconds))
		if sl.deliveries > 0 {
			cpu = append(cpu, sl.cpuUs/float64(sl.deliveries))
		}
	}
	m["deliveries_per_s"] = metric{Value: median(rate), Unit: "1/s", Samples: len(rate),
		Note: fmt.Sprintf("median of one-second slices; whole window %.6g", per(D, T))}
	m["rtt_p50_ms"] = metric{Value: percentile(rtt, 0.5), Unit: "ms", Samples: len(rtt)}
	m["server_cpu_us_per_delivery"] = metric{Value: median(cpu), Unit: "us", Samples: len(cpu),
		Note: fmt.Sprintf("median of one-second slices; whole window %.6g", per(cpuBetween(u.p0, u.p1), D))}
	m["server_peak_rss_mb"] = metric{Value: float64(u.p1.hwmKB) / 1024, Unit: "MB"}
	m["subscribe_p50_ms"] = metric{Value: percentile(sub, 0.5), Unit: "ms", Samples: len(sub)}

	if u.p0.io != nil && u.p1.io != nil {
		m["daemon.read_syscalls_per_delivery"] = metric{Value: per(float64(u.p1.io.syscr-u.p0.io.syscr), D), Unit: "count"}
		m["daemon.write_syscalls_per_delivery"] = metric{Value: per(float64(u.p1.io.syscw-u.p0.io.syscw), D), Unit: "count"}
		m["daemon.bytes_out_per_delivery"] = metric{Value: per(float64(u.p1.io.wchar-u.p0.io.wchar), D), Unit: "B"}
	} else {
		res.Notes = append(res.Notes, "syscall metrics unavailable: /proc/<pid>/io is not readable here; daemon.*_syscalls_per_delivery and daemon.bytes_out_per_delivery read 0")
		for _, n := range []string{"daemon.read_syscalls_per_delivery", "daemon.write_syscalls_per_delivery"} {
			m[n] = metric{Unit: "count", Note: "unavailable"}
		}
		m["daemon.bytes_out_per_delivery"] = metric{Unit: "B", Note: "unavailable"}
	}
	m["daemon.sys_cpu_share"] = metric{Value: per(ds, du+ds), Unit: "ratio"}
	m["loadgen.cpu_us_per_delivery"] = metric{Value: per(float64(u.selfCPU.Microseconds()), D), Unit: "us"}
	m["loadgen.allocs_per_delivery"] = metric{Value: per(float64(u.mallocs), D), Unit: "count"}
	lagV, lagQ := tail(lag, 0.99)
	m["loadgen.lag_p99_ms"] = metric{Value: lagV, Unit: "ms", Samples: len(lag), Note: quoted(lagQ, 0.99)}
	if w.name == "grid_paced" && lagV > 5 {
		res.Notes = append(res.Notes, fmt.Sprintf("INVALID: the open-loop generator ran %.2f ms late at p99 (limit 5 ms); the host was too busy to offer 4000 msg/s on schedule", lagV))
	}
	p99, q99 := tail(rtt, 0.99)
	p999, q999 := tail(rtt, 0.999)
	m["loadgen.rtt_p99_ms"] = metric{Value: p99, Unit: "ms", Samples: len(rtt), Note: quoted(q99, 0.99)}
	m["loadgen.rtt_p999_ms"] = metric{Value: p999, Unit: "ms", Samples: len(rtt), Note: quoted(q999, 0.999)}
	m["loadgen.build_s"] = metric{Value: build.Seconds(), Unit: "s"}
	for k, v := range u.t.extra {
		m[k] = v
	}

	if pl.trace {
		tr := &tracer{}
		t, err := w.pass(l, seed, pin, pl.warmup, tracedWindow, tr)
		if err != nil {
			return nil, err
		}
		setupS, startMs = append(setupS, t.setup.Seconds()), append(startMs, ms(t.start))
		res.Attempted += t.t.attempted
		res.Failed += t.t.failed
		res.Detail += t.t.detail
		if err := tr.writeJSONL(filepath.Join(l.out, "trace-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
		traced := per(float64(t.t.deliveries), t.elapsed.Seconds())
		m["loadgen.trace_overhead_pct"] = metric{Value: per(per(D, T)-traced, per(D, T)) * 100, Unit: "%", Samples: len(tr.spans)}
		send := sortedMillis(tr.durations(w.sendSpan, t.open, 1<<62))
		dial := sortedMillis(tr.durations(w.dialSpan, 0, 1<<62))
		reg := sortedMillis(tr.durations(w.registerSpan, 0, t.open))
		m["client.send_call_us_p50"] = metric{Value: percentile(send, 0.5) * 1e3, Unit: "us", Samples: len(send)}
		m["client.dial_ms_p50"] = metric{Value: percentile(dial, 0.5), Unit: "ms", Samples: len(dial)}
		m["client.register_us_p50"] = metric{Value: percentile(reg, 0.5) * 1e3, Unit: "us", Samples: len(reg)}

		unpin() // the replays run the same on every workload
		replays, err := runReplays(l, seed, replayBudget)
		if err != nil {
			return nil, err
		}
		for k, v := range replays {
			m[k] = v
		}
		// What is left of the median round trip after the client's send
		// call and the in-process cost of each layer it crosses: syscalls,
		// wake-ups and queueing — the paper's fig. 15 taken from outside.
		inProcess := m["wire.decode_publish_ns"].Value + m["broker.publish_ns_fan1"].Value +
			m["wire.encode_deliver_ns"].Value + m["wire.decode_deliver_ns"].Value
		if w.daemon == "rgmad" {
			inProcess = inputs.BatchSize * (m["sqlmini.parse_insert_ns"].Value + m["rgmacore.insert_ns"].Value)
		}
		m["loadgen.rtt_unattributed_us"] = metric{
			Value: m["rtt_p50_ms"].Value*1e3 - m["client.send_call_us_p50"].Value - inProcess/1e3, Unit: "us"}
	}
	m["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: len(setupS)}
	m["daemon.start_ms"] = metric{Value: median(startMs), Unit: "ms", Samples: len(startMs)}
	res.Correct = res.Failed == 0 && D > 0
	if D == 0 {
		res.Detail += " nothing was delivered inside the window;"
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quoted notes when a tail percentile had too few samples and a lower one
// was reported in its place.
func quoted(used, asked float64) string {
	if used == asked {
		return ""
	}
	return fmt.Sprintf("too few samples for p%g: this is p%g", asked*100, used*100)
}

// runReplays runs the layer replays in their own process. They are a
// separate program so that a change to an internal API can break them
// without stopping the end-to-end run from compiling.
func runReplays(l layout, seed int64, budget time.Duration) (map[string]metric, error) {
	cmd := exec.Command(filepath.Join(l.binDir, "layers"), "-seed", fmt.Sprint(seed), "-budget", budget.String())
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer replays: %w", err)
	}
	var m map[string]metric
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("layer replays: %w", err)
	}
	return m, nil
}
