// Command bench is the repository's one end-to-end benchmark: it builds
// naradad and rgmad, runs the daemon a workload needs as a child process
// on a loopback port, drives it through the real client packages, checks
// every delivery, and reports end-to-end and per-layer metrics. See
// README.md.
//
//	bash bench/run.sh                      all five workloads, 20 s each
//	bash bench/run.sh -trace 1             … plus traced pass and layer replays
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                       one workload, driver's result line
//	bash bench/run.sh repeat -n 5          repeatability table
//	bash bench/run.sh manifest             print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	// A child daemon must not outlive the load generator, however it ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLive()
		os.Exit(130)
	}()
	code := 1
	func() {
		defer func() {
			if p := recover(); p != nil {
				killLive()
				panic(p)
			}
		}()
		code = realMain(os.Args[1:])
	}()
	killLive()
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func (o options) plan() plan {
	return plan{seconds: o.seconds, warmup: defaultWarmup, setups: defaultSetups, trace: o.trace == 1}
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print the driver's one-line result")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload (after a 2 s unrecorded warm-up)")
	fs.IntVar(&o.trace, "trace", 0, "1: add the traced pass and the layer replays, and report per-layer metrics")
}

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "manifest" {
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	}
	repeatN := 0
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	if len(args) > 0 && args[0] == "repeat" {
		args = args[1:]
		fs.IntVar(&repeatN, "n", 5, "how many times to run the full set")
	}
	var o options
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	selected := workloads()
	if o.workload != "" {
		selected = nil
		for _, w := range workloads() {
			if w.name == o.workload {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q", o.workload))
		}
	}

	l, err := findLayout()
	if err != nil {
		return fail(err)
	}
	build, err := l.goBuild(l.root, "./cmd/naradad", "./cmd/rgmad")
	if err != nil {
		return fail(err)
	}
	if o.trace == 1 {
		d, err := l.goBuild(l.bench, "./layers")
		if err != nil {
			return fail(err)
		}
		build += d
	}

	if repeatN > 0 {
		return repeat(l, selected, o, repeatN, build)
	}
	var results []*result
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "bench: %s (%.0f s, seed %d, trace %d) …\n", w.name, o.seconds, o.seed, o.trace)
		r, err := measure(l, w, o.seed, o.plan(), build)
		if err != nil {
			return fail(err)
		}
		results = append(results, r)
	}
	table(os.Stderr, results)

	doc := envelope(l, o, results)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	name := "result.json"
	if o.workload != "" {
		name = fmt.Sprintf("result-%s-trace%d.json", o.workload, o.trace)
	}
	if err := os.WriteFile(filepath.Join(l.out, name), append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	if o.workload == "" {
		os.Stdout.Write(append(b, '\n'))
	} else if err := driverLine(results[0], o.trace == 1); err != nil {
		return fail(err)
	}
	return exitCode(results)
}

// exitCode is non-zero when any workload failed its correctness gate.
func exitCode(results []*result) int {
	code := 0
	for _, r := range results {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s FAILED its correctness gate:%s\n", r.Name, r.Detail)
			code = 1
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// driverLine prints the one-line result the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func driverLine(r *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Name, d.Name)
		}
		out.Metrics[d.Name] = mv{m.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// envelope wraps the results in the one document format every run writes.
func envelope(l layout, o options, results []*result) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", l.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"benchmark":  "gridmon bench: naradad and rgmad over loopback TCP",
		"commit":     commit,
		"go":         runtime.Version(),
		"host_cpus":  runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     kernel,
		"seed":       o.seed,
		"window_s":   o.seconds,
		"warmup_s":   defaultWarmup.Seconds(),
		"traced":     o.trace == 1,
		"network":    "host loopback (127.0.0.1), not a link: no wire latency, no loss",
		"date":       time.Now().UTC().Format(time.RFC3339),
		"workloads":  results,
		"claim":      nil,
	}
}

// table prints the human view: end-to-end metrics first, then the rest.
func table(w *os.File, results []*result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	e2e := map[string]bool{}
	fmt.Fprint(tw, "workload")
	for _, d := range endToEnd {
		e2e[d.Name] = true
		fmt.Fprintf(tw, "\t%s [%s]", d.Name, d.Unit)
	}
	fmt.Fprintln(tw, "\tfailed/attempted")
	for _, r := range results {
		fmt.Fprint(tw, r.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "\t%.4g", r.Metrics[d.Name].Value)
		}
		fmt.Fprintf(tw, "\t%d/%d\n", r.Failed, r.Attempted)
	}
	tw.Flush()
	for _, r := range results {
		fmt.Fprintf(w, "\n%s — per layer\n", r.Name)
		var names []string
		for n := range r.Metrics {
			if !e2e[n] {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, n := range names {
			m := r.Metrics[n]
			fmt.Fprintf(tw, "  %s\t%.5g\t%s\tn=%d\t%s\n", n, m.Value, m.Unit, m.Samples, m.Note)
		}
		tw.Flush()
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
}
