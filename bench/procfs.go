package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// procSample is one reading of a daemon's /proc/<pid> counters. Ticks
// are USER_HZ clock ticks; io is nil where /proc/<pid>/io is missing
// (some sandboxes hide it), which turns the syscall metrics off rather
// than failing the run.
type procSample struct {
	utime, stime uint64
	// onCPU is the exact time the process's threads have run, summed
	// from /proc/<pid>/task/*/schedstat; 0 where the kernel does not keep
	// it. The tick counts above are sampled at the timer interrupt, which
	// is too coarse for a 5 % regression bound, so onCPU is preferred.
	onCPU time.Duration
	hwmKB uint64
	io    *ioCounters
}

type ioCounters struct {
	rchar, wchar, syscr, syscw uint64
}

// parseStat extracts utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStat(text string) (utime, stime uint64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, 0, errors.New("stat: no command field")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("stat: %d fields after command, want at least 13", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stat: utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stat: stime: %w", err)
	}
	return utime, stime, nil
}

// parseStatusHWM extracts VmHWM (peak resident set, kB) from the text of
// /proc/<pid>/status.
func parseStatusHWM(text string) (kb uint64, err error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("status: no VmHWM line")
}

// parseSchedstat extracts a thread's time on CPU, the first field of
// /proc/<pid>/task/<tid>/schedstat, in nanoseconds.
func parseSchedstat(text string) (time.Duration, error) {
	f := strings.Fields(text)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// cpuBetween is the CPU time a process used between two samples, in
// microseconds: exact where schedstat is kept, else from clock ticks.
func cpuBetween(a, b procSample) float64 {
	if a.onCPU > 0 && b.onCPU > a.onCPU {
		return float64(b.onCPU-a.onCPU) / 1e3
	}
	return float64(b.utime+b.stime-a.utime-a.stime) * 1e6 / clockTicksPerSecond()
}

// parseIO extracts the byte and syscall counters from /proc/<pid>/io.
func parseIO(text string) (ioCounters, error) {
	var c ioCounters
	want := map[string]*uint64{"rchar": &c.rchar, "wchar": &c.wchar, "syscr": &c.syscr, "syscw": &c.syscw}
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if dst := want[k]; dst != nil {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return c, fmt.Errorf("io: %s: %w", k, err)
			}
			*dst = n
			seen++
		}
	}
	if seen != len(want) {
		return c, fmt.Errorf("io: found %d of %d counters", seen, len(want))
	}
	return c, nil
}

// readProc samples a live process. A missing or unreadable io file is
// not an error.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	b, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	if s.utime, s.stime, err = parseStat(string(b)); err != nil {
		return s, err
	}
	if b, err = os.ReadFile(dir + "status"); err != nil {
		return s, err
	}
	if s.hwmKB, err = parseStatusHWM(string(b)); err != nil {
		return s, err
	}
	tasks, _ := filepath.Glob(dir + "task/*/schedstat")
	for _, t := range tasks {
		// A thread may exit between the glob and the read; Go's runtime
		// threads practically never do.
		if b, err := os.ReadFile(t); err == nil {
			ns, err := parseSchedstat(string(b))
			if err != nil {
				s.onCPU = 0
				break
			}
			s.onCPU += ns
		}
	}
	if b, err = os.ReadFile(dir + "io"); err == nil {
		if c, err := parseIO(string(b)); err == nil {
			s.io = &c
		}
	}
	return s, nil
}

// clockTicksPerSecond reads USER_HZ from the auxiliary vector (AT_CLKTCK),
// falling back to the value every mainstream Linux port uses.
func clockTicksPerSecond() float64 {
	const atClkTck = 17
	b, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	for ; len(b) >= 16; b = b[16:] {
		if binary.NativeEndian.Uint64(b) == atClkTck {
			if v := binary.NativeEndian.Uint64(b[8:]); v > 0 {
				return float64(v)
			}
		}
	}
	return 100
}
