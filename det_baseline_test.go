package gridmon

import (
	"fmt"
	"os"
	"testing"

	"gridmon/internal/experiment"
	"gridmon/internal/simbroker"
)

// Determinism guarantees: equal seeds must produce byte-identical
// experiment output. The broker's subscription index, the brokernet peer
// list, and the simbroker ack flushing are all iteration-ordered for
// exactly this reason; a map-range anywhere on the publish or forward
// path shows up here as a flaky diff.

// TestExperimentDeterminism runs a single-broker and a 3-broker DBN
// experiment twice with the same seed and requires identical results —
// identical to each other and to testdata/det_golden.txt, recorded at
// commit c887fa3, so a refactor that perturbs the simulated event order
// fails here instead of needing a manual DET_OUT diff. A change that
// means to move the figures regenerates the golden file and says so.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs take a few seconds")
	}
	golden, err := os.ReadFile("testdata/det_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	scale := experiment.Scale{PublishCount: 3, SpawnFactor: 3.0 / 180.0, Label: "det"}
	run := func(dbn bool) string {
		r := experiment.RunNarada(experiment.NaradaConfig{
			Label: "det", Connections: 600, Transport: simbroker.TCP(),
			Scale: scale, Seed: 7, DBN: dbn,
		})
		return fmt.Sprintf("dbn=%v n=%d mean=%v p99=%v loss=%+v idle=%v\n",
			dbn, r.RTT.Count(), r.RTT.Mean(), r.RTT.Percentile(99), r.Loss, r.CPUIdlePct)
	}
	var got string
	for _, dbn := range []bool{false, true} {
		a, b := run(dbn), run(dbn)
		if a != b {
			t.Errorf("dbn=%v: same seed, different results:\n  %s  %s", dbn, a, b)
		}
		got += a
	}
	if got != string(golden) {
		t.Errorf("results differ from testdata/det_golden.txt:\ngot:\n%swant:\n%s", got, golden)
	}
}

// TestWriteDetBaseline dumps the main experiment figures to DET_OUT, as a
// manual harness for comparing figure output across refactors:
//
//	DET_OUT=/tmp/a.txt go test -run TestWriteDetBaseline .
func TestWriteDetBaseline(t *testing.T) {
	out := os.Getenv("DET_OUT")
	if out == "" {
		t.Skip("set DET_OUT")
	}
	scale := experiment.Scale{PublishCount: 6, SpawnFactor: 6.0 / 180.0, Label: "bench"}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fig3, fig4, _ := experiment.Fig3And4(scale)
	fmt.Fprintf(f, "%v\n%v\n", fig3, fig4)
	r := experiment.RunNaradaScale(scale)
	fmt.Fprintf(f, "%v\n%v\n%v\n%v\n", experiment.Fig6(r), experiment.Fig7(r), experiment.Fig8(r), experiment.Fig9(r))
	f10, _ := experiment.Fig10(scale)
	fmt.Fprintf(f, "%v\n", f10)
	rg := experiment.RunRGMAScale(scale)
	fmt.Fprintf(f, "%v\n%v\n%v\n%v\n", experiment.Fig11(rg), experiment.Fig12(rg), experiment.Fig13(rg), experiment.Fig14(rg))
}
