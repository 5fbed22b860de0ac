package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// layout locates everything the benchmark reads and writes, all inside
// the checkout.
type layout struct {
	root   string // the gridmon module root
	bench  string // root/bench, this module
	out    string // bench/out: results, traces, daemon stderr, temp data
	binDir string // .bench_build/bin: built daemons and the replay binary
}

// findLayout walks up from the working directory to the gridmon module
// root, so the benchmark runs the same from the root (the driver, run.sh)
// and from bench/ (go -C bench run .).
func findLayout() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module gridmon\n") {
			l := layout{
				root:   dir,
				bench:  filepath.Join(dir, "bench"),
				out:    filepath.Join(dir, "bench", "out"),
				binDir: filepath.Join(dir, ".bench_build", "bin"),
			}
			return l, os.MkdirAll(l.out, 0o755)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, errors.New("not inside the gridmon module: no go.mod declaring \"module gridmon\" above the working directory")
		}
		dir = parent
	}
}

// goBuild compiles packages of the module rooted at dir into the bin
// directory and returns how long it took. With a warm build cache this is
// a staleness check.
func (l layout) goBuild(dir string, pkgs ...string) (time.Duration, error) {
	start := time.Now()
	args := append([]string{"build", "-o", l.binDir + string(filepath.Separator)}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build %v in %s: %w\n%s", pkgs, dir, err, out)
	}
	return time.Since(start), nil
}

// daemon is one child process under test.
type daemon struct {
	kind    string // naradad | rgmad
	cmd     *exec.Cmd
	addr    string // naradad: the broker port; rgmad: the binary port
	http    string // rgmad only: the HTTP port
	dataDir string
	start   time.Duration // spawn → first accepted dial
	exited  chan struct{} // closed once the process has been reaped
}

// live tracks running children so that an interrupt or a panic in the
// load generator cannot leave one behind.
var live struct {
	sync.Mutex
	m map[*daemon]struct{}
}

func killLive() {
	live.Lock()
	defer live.Unlock()
	for d := range live.m {
		_ = d.cmd.Process.Kill()
		<-d.exited
		d.removeData()
	}
	live.m = nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; a lost race surfaces as a daemon
// that exits at once, and startDaemon retries.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon spawns kind on free loopback ports and waits until it
// accepts connections. stderrPath collects the child's log (appended, so
// one file holds every set-up of a run). A non-zero pin confines the
// daemon to those CPUs.
func startDaemon(l layout, kind string, withData bool, stderrPath string, pin cpuMask) (*daemon, error) {
	var last error
	for range 3 {
		d, err := spawn(l, kind, withData, stderrPath, pin)
		if err == nil {
			return d, nil
		}
		last = err
	}
	return nil, last
}

func spawn(l layout, kind string, withData bool, stderrPath string, pin cpuMask) (*daemon, error) {
	d := &daemon{kind: kind, exited: make(chan struct{})}
	var err error
	if d.addr, err = freeAddr(); err != nil {
		return nil, err
	}
	args := []string{"-stats", "0"}
	switch kind {
	case "naradad":
		args = append(args, "-listen", d.addr, "-id", "bench")
	case "rgmad":
		if d.http, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-listen", d.http, "-listen-bin", d.addr)
	default:
		return nil, fmt.Errorf("unknown daemon %q", kind)
	}
	if withData {
		if d.dataDir, err = os.MkdirTemp(l.out, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", d.dataDir)
	}
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		d.removeData()
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(filepath.Join(l.binDir, kind), args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// Should the load generator be killed outright, the kernel takes the
	// daemon down with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if pin != 0 {
		// Confined to one core the daemon would size itself for one; keep
		// the configuration it has on every other workload.
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
		err = startOn(d.cmd, pin)
	} else {
		err = d.cmd.Start()
	}
	if err != nil {
		d.removeData()
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is not used: any exit before stop is a failure
		close(d.exited)
	}()
	live.Lock()
	if live.m == nil {
		live.m = map[*daemon]struct{}{}
	}
	live.m[d] = struct{}{}
	live.Unlock()

	for _, addr := range []string{d.addr, d.http} {
		if addr == "" {
			continue
		}
		if err := d.awaitListen(addr); err != nil {
			d.stop()
			return nil, err
		}
	}
	d.start = time.Since(begin)
	return d, nil
}

// awaitListen dials until the daemon accepts, it exits, or 5 s pass.
func (d *daemon) awaitListen(addr string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c.Close()
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before listening on %s", d.kind, addr)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening on %s after 5s: %w", d.kind, addr, err)
		}
	}
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop ends the daemon (SIGTERM, then SIGKILL after 3 s), waits until it
// has been reaped and removes its data directory.
func (d *daemon) stop() {
	if d.alive() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(3 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.removeData()
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

func (d *daemon) removeData() {
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}
