// Command gridbench regenerates every table and figure of the paper's
// evaluation on the deterministic simulator.
//
// Usage:
//
//	gridbench [-scale quick|full] [-run all|table1|table2|table3|fig3|fig4|
//	          fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|
//	          warmup|oom|ablations]
//
// -scale full reproduces the paper's 30-minute runs (slower); quick keeps
// the same connection counts and rates with a shorter measurement window.
// The live daemons are measured by bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gridmon/internal/experiment"
	"gridmon/internal/simbroker"
)

// experimentIDs are the values -run accepts.
var experimentIDs = []string{"all", "table1", "table2", "table3",
	"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"warmup", "oom", "ablations", "ablation"}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	runFlag := flag.String("run", "all", "comma-separated experiment ids (see doc comment)")
	flag.Parse()

	var scale experiment.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiment.Quick()
	case "full":
		scale = experiment.Full()
	default:
		fmt.Fprintf(os.Stderr, "gridbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	// A misspelt id would otherwise select nothing, and a stray
	// positional argument (with the default -run all) everything.
	unknown := func(id string) {
		fmt.Fprintf(os.Stderr, "gridbench: unknown experiment id %q (-run takes a comma-separated list of %s)\n",
			id, strings.Join(experimentIDs, ", "))
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		unknown(flag.Arg(0))
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*runFlag, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !slices.Contains(experimentIDs, id) {
			unknown(id)
		}
		want[id] = true
	}
	all := want["all"]
	sel := func(ids ...string) bool {
		if all {
			return true
		}
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return false
	}

	start := time.Now()
	fmt.Printf("gridbench: scale=%s run=%s\n\n", scale.Label, *runFlag)

	if sel("table1") {
		fmt.Println(experiment.Table1().Render())
	}
	if sel("table2") {
		fmt.Println(experiment.Table2().Render())
	}
	if sel("fig3", "fig4") {
		fig3, fig4, _ := experiment.Fig3And4(scale)
		fmt.Println(fig3.Render())
		fmt.Println(fig4.Render())
	}
	if sel("fig6", "fig7", "fig8", "fig9") {
		r := experiment.RunNaradaScale(scale)
		fmt.Println(experiment.Fig6(r).Render())
		fmt.Println(experiment.Fig7(r).Render())
		fmt.Println(experiment.Fig8(r).Render())
		fmt.Println(experiment.Fig9(r).Render())
	}
	if sel("fig10") {
		t, _ := experiment.Fig10(scale)
		fmt.Println(t.Render())
	}
	if sel("fig11", "fig12", "fig13", "fig14") {
		r := experiment.RunRGMAScale(scale)
		fmt.Println(experiment.Fig11(r).Render())
		fmt.Println(experiment.Fig12(r).Render())
		fmt.Println(experiment.Fig13(r).Render())
		fmt.Println(experiment.Fig14(r).Render())
	}
	if sel("fig15") {
		t, _ := experiment.Fig15(scale)
		fmt.Println(t.Render())
	}
	if sel("warmup") {
		t, _ := experiment.WarmupLoss(scale)
		fmt.Println(t.Render())
	}
	if sel("oom") {
		t, _, _ := experiment.OOMCliffs(scale)
		fmt.Println(t.Render())
	}
	if sel("table3") {
		narada := experiment.RunNarada(experiment.NaradaConfig{
			Label: "narada", Connections: 500, Transport: tcp(), Scale: scale, Seed: 1001,
		})
		dbn := experiment.RunNarada(experiment.NaradaConfig{
			Label: "dbn", Connections: 500, Transport: tcp(), DBN: true, Scale: scale, Seed: 1002,
		})
		rs := experiment.RunRGMA(experiment.RGMAConfig{Label: "rgma", Connections: 200, Scale: scale, Seed: 1003})
		rd := experiment.RunRGMA(experiment.RGMAConfig{Label: "rgma-d", Connections: 200, Distributed: true, Scale: scale, Seed: 1004})
		fmt.Println(experiment.Table3(narada, dbn, rs, rd).Render())
	}
	if sel("ablations", "ablation") {
		t1, _ := experiment.AblationRouting(scale)
		fmt.Println(t1.Render())
		t2, _ := experiment.AblationAckMode(scale)
		fmt.Println(t2.Render())
		t3, _ := experiment.AblationAggregation(scale)
		fmt.Println(t3.Render())
		t4, _ := experiment.AblationPollInterval(scale)
		fmt.Println(t4.Render())
	}

	fmt.Printf("gridbench: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func tcp() simbroker.Transport { return simbroker.TCP() }
