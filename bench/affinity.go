package main

import (
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a set of CPUs, bit i for CPU i. 64 CPUs are plenty for a
// benchmark that sizes itself for two.
type cpuMask uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return 0, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// highestCPU returns the set holding only the highest-numbered CPU of m:
// CPU 0 tends to take the interrupts.
func (m cpuMask) highestCPU() cpuMask {
	return 1 << (bits.Len64(uint64(m)) - 1)
}

// pinSelf moves every thread of this process onto m. Threads the runtime
// creates later inherit the mask of the thread that creates them.
func pinSelf(m cpuMask) error {
	tasks, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(filepath.Base(t))
		if err != nil {
			continue
		}
		// A thread may have exited since the glob.
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("pin thread %d: %w", tid, err)
		}
	}
	return nil
}

// startOn starts cmd with its CPU affinity set to m: a child inherits the
// mask of the thread that forks it, so the calling thread borrows m for
// the duration of the fork.
func startOn(cmd *exec.Cmd, m cpuMask) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(0, m); err != nil {
		return err
	}
	defer func() {
		if err := setAffinity(0, old); err != nil {
			fmt.Fprintln(os.Stderr, "bench: restoring CPU affinity:", err)
		}
	}()
	return cmd.Start()
}

// confineToOneCPU moves this process onto the highest-numbered CPU it may
// use and returns that CPU's mask, for the daemon to be started on, and
// the call that lifts the confinement again (harmless to repeat). On a
// single-CPU host there is nothing to choose: pin is 0, which startDaemon
// reads as "do not pin".
func confineToOneCPU() (pin cpuMask, unpin func(), err error) {
	all, err := getAffinity()
	if err != nil {
		return 0, nil, err
	}
	if bits.OnesCount64(uint64(all)) < 2 {
		return 0, func() {}, nil
	}
	pin = all.highestCPU()
	if err := pinSelf(pin); err != nil {
		return 0, nil, err
	}
	return pin, func() {
		if err := pinSelf(all); err != nil {
			fmt.Fprintln(os.Stderr, "bench: restoring CPU affinity:", err)
		}
	}, nil
}
