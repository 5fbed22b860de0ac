package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokePlan is a run cut down to fit a test: one set-up, a short
// warm-up, a one-second window.
var smokePlan = plan{seconds: 1, warmup: 300 * time.Millisecond, setups: 1}

func buildDaemons(t *testing.T) layout {
	t.Helper()
	l, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.goBuild(l.root, "./cmd/naradad", "./cmd/rgmad"); err != nil {
		t.Fatal(err)
	}
	return l
}

// Every workload runs against a real child daemon and passes its own
// correctness gate.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	l := buildDaemons(t)
	for _, w := range workloads() {
		r, err := measure(l, w, 1, smokePlan, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed:%s", w.name, r.Failed, r.Attempted, r.Detail)
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, d.Name, m.Value)
			}
		}
		if err := driverLine(r, false); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if live.m != nil && len(live.m) != 0 {
		t.Errorf("%d daemons left running", len(live.m))
	}
}

// A delivery dropped or repeated between the socket and the checker fails
// the run.
func TestInjectedFaultFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	l := buildDaemons(t)
	for name, copies := range map[string]int{"missing": 0, "duplicate": 2} {
		w := naradaWorkloads()[0] // grid_paced
		w.tamper = func(seq int64) int {
			if seq == 1500 {
				return copies
			}
			return 1
		}
		r, err := measure(l, w, 1, smokePlan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 {
			t.Errorf("a %s delivery passed the correctness gate", name)
		}
		if code := exitCode([]*result{r}); code == 0 {
			t.Errorf("a run with a %s delivery exits 0", name)
		}
	}
}

// BENCHMARK.json is generated from the metric tables ("bench manifest");
// the checked-in copy must not drift from them.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	l, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(l.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if json.Unmarshal(got, &a) != nil || json.Unmarshal(want, &b) != nil {
		t.Fatal("BENCHMARK.json or the manifest is not JSON")
	}
	ga, _ := json.Marshal(a)
	gb, _ := json.Marshal(b)
	if string(ga) != string(gb) {
		t.Errorf("BENCHMARK.json differs from `bench manifest`; regenerate it:\n got %s\nwant %s", ga, gb)
	}
	for _, w := range workloads() {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}
