package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	const text = "4242 (nara dad) x) S 1 4242 4242 0 -1 4194560 1500 0 3 0 731 269 0 0 20 0 9 0 123456 1300000000 3500 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	u, s, err := parseStat(text)
	if err != nil || u != 731 || s != 269 {
		t.Fatalf("parseStat = %d, %d, %v; want 731, 269, nil", u, s, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3"} {
		if _, _, err := parseStat(bad); err == nil {
			t.Errorf("parseStat(%q) succeeded", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	const text = "Name:\tnaradad\nVmPeak:\t 1300000 kB\nVmHWM:\t   14272 kB\nVmRSS:\t   13900 kB\nThreads:\t9\n"
	kb, err := parseStatusHWM(text)
	if err != nil || kb != 14272 {
		t.Fatalf("parseStatusHWM = %d, %v; want 14272, nil", kb, err)
	}
	if _, err := parseStatusHWM("Name:\tx\nVmRSS:\t1 kB\n"); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := parseStatusHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("malformed VmHWM accepted")
	}
}

func TestParseIO(t *testing.T) {
	const text = "rchar: 1000\nwchar: 2000\nsyscr: 30\nsyscw: 40\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	c, err := parseIO(text)
	if err != nil || c != (ioCounters{rchar: 1000, wchar: 2000, syscr: 30, syscw: 40}) {
		t.Fatalf("parseIO = %+v, %v", c, err)
	}
	if _, err := parseIO("rchar: 1\nwchar: 2\n"); err == nil {
		t.Error("truncated io accepted")
	}
	if _, err := parseIO("rchar: x\nwchar: 2\nsyscr: 3\nsyscw: 4\n"); err == nil {
		t.Error("non-numeric io accepted")
	}
}

func TestParseSchedstat(t *testing.T) {
	d, err := parseSchedstat("583405311 52764 1807\n")
	if err != nil || d != 583405311*time.Nanosecond {
		t.Fatalf("parseSchedstat = %v, %v", d, err)
	}
	if _, err := parseSchedstat("1 2"); err == nil {
		t.Error("short schedstat accepted")
	}
}

func TestCPUBetweenPrefersSchedstat(t *testing.T) {
	a := procSample{utime: 10, stime: 5, onCPU: time.Second}
	b := procSample{utime: 30, stime: 15, onCPU: 1500 * time.Millisecond}
	if got := cpuBetween(a, b); got != 500_000 {
		t.Errorf("with schedstat: %v µs, want 500000", got)
	}
	a.onCPU, b.onCPU = 0, 0
	want := 30 * 1e6 / clockTicksPerSecond()
	if got := cpuBetween(a, b); got != want {
		t.Errorf("from ticks: %v µs, want %v", got, want)
	}
}

// The io file is absent in some sandboxes: that turns the syscall metrics
// off and nothing else.
func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.hwmKB == 0 {
		t.Error("no peak RSS for this process")
	}
	if _, err := readProc(1 << 30); err == nil {
		t.Error("readProc of a pid that cannot exist succeeded")
	}
}
