package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// repeat runs the selected workloads n times over and prints, for every
// end-to-end metric of every workload, min / median / max, the range
// (max − min) ÷ median and the quartile spread (Q3 − Q1) ÷ median. It fails
// when a quartile spread exceeds the metric's bound — the benchmark
// driver's own acceptance rule: a metric that does not repeat within its
// bound cannot decide whether a later change regressed it. The range is
// printed but not judged; on a shared host one disturbed run in ten is
// ordinary, and the quartiles are what survive it.
func repeat(l layout, selected []*workload, o options, n int, build time.Duration) int {
	values := map[string][]float64{} // workload/metric → one value per round
	for round := range n {
		for _, w := range selected {
			fmt.Fprintf(os.Stderr, "bench repeat: round %d/%d %s …\n", round+1, n, w.name)
			// A different seed each round: the inputs must not matter.
			pl := o.plan()
			pl.trace = false
			r, err := measure(l, w, o.seed+int64(round), pl, build)
			if err != nil {
				return fail(err)
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "bench repeat: %s FAILED its correctness gate:%s\n", r.Name, r.Detail)
				return 1
			}
			for _, d := range endToEnd {
				key := w.name + "/" + d.Name
				values[key] = append(values[key], r.Metrics[d.Name].Value)
			}
		}
	}
	fmt.Printf("| workload | metric | unit | min | median | max | range | quartile spread | bound |\n|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, w := range selected {
		for _, d := range endToEnd {
			v := values[w.name+"/"+d.Name]
			lo, hi, mid := slices.Min(v), slices.Max(v), median(v)
			q1, q3 := quartiles(v)
			spread := per(q3-q1, mid)
			flag := ""
			if spread > d.Bound && d.Name != "setup_s" { // the driver judges setup_s by its median only
				flag, code = " **over**", 1
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.1f %% | %.1f %%%s | %.0f %% |\n",
				w.name, d.Name, d.Unit, lo, mid, hi, per(hi-lo, mid)*100, spread*100, flag, d.Bound*100)
		}
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "bench repeat: at least one metric spread beyond its bound")
	}
	return code
}
