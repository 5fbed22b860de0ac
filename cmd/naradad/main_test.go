package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gridmon/internal/gridgen"
	"gridmon/internal/jms"
	"gridmon/internal/message"
)

// childEnv, when set, makes this test binary run naradad's main instead
// of its tests: the tests start real daemons from os.Args[0], so under
// -race the daemons are race-instrumented too.
const childEnv = "NARADAD_TEST_CHILD"

// waitLimit bounds every wait on a daemon: a log line, an exit, a
// delivery.
const waitLimit = 30 * time.Second

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		go func() {
			// The parent holds stdin open: EOF means it died without
			// its cleanups, and the daemon must not outlive it.
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(2)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one naradad child process and the stderr it has logged.
type daemon struct {
	t     *testing.T
	cmd   *exec.Cmd
	stdin io.WriteCloser // held open for the child's lifetime

	mu   sync.Mutex
	out  []byte
	grew chan struct{} // closed and replaced whenever out grows

	done chan struct{} // closed once stderr ended and the child was reaped
	exit error         // cmd.Wait's result, set before done closes
}

// start runs naradad with args. Cleanup kills it, and fails the test
// if its stderr holds a race report.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, stdin: stdin, grew: make(chan struct{}), done: make(chan struct{})}
	go d.read(stderr)
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // fails once the child has exited
		<-d.done
		if log := d.log(); strings.Contains(log, "WARNING: DATA RACE") || t.Failed() {
			t.Errorf("naradad %q:\n%s", args, log)
		}
	})
	return d
}

func (d *daemon) read(stderr io.Reader) {
	buf := make([]byte, 4096)
	for {
		n, err := stderr.Read(buf)
		d.mu.Lock()
		d.out = append(d.out, buf[:n]...)
		close(d.grew)
		d.grew = make(chan struct{})
		d.mu.Unlock()
		if err != nil {
			break
		}
	}
	d.exit = d.cmd.Wait()
	close(d.done)
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return string(d.out)
}

// waitLog waits for the daemon to log a match of pattern and returns
// the match and its submatches.
func (d *daemon) waitLog(pattern string) []string {
	d.t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(waitLimit)
	for exited := false; ; {
		d.mu.Lock()
		m := re.FindStringSubmatch(string(d.out))
		grew := d.grew
		d.mu.Unlock()
		if m != nil {
			return m
		}
		if exited {
			d.t.Fatalf("naradad exited (%v) without logging %q", d.exit, pattern)
		}
		select {
		case <-grew:
		case <-d.done:
			exited = true
		case <-deadline:
			d.t.Fatalf("naradad logged no %q in %v", pattern, waitLimit)
		}
	}
}

// requireClean waits for the daemon's WAL recovery line and fails the
// test unless it reports clean=want.
func (d *daemon) requireClean(want bool) {
	d.t.Helper()
	if got := d.waitLog(`recovered .*clean=(\w+)`)[1]; got != fmt.Sprint(want) {
		d.t.Fatalf("naradad recovered with clean=%s, want %v", got, want)
	}
}

// addr waits for the listener and returns its address.
func (d *daemon) addr() string {
	d.t.Helper()
	return d.waitLog(`listening on (\S+)`)[1]
}

// signal sends sig and returns how the daemon exited.
func (d *daemon) signal(sig os.Signal) error {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		d.t.Fatal(err)
	}
	select {
	case <-d.done:
		return d.exit
	case <-time.After(waitLimit):
		d.t.Fatalf("naradad still running %v after %v", waitLimit, sig)
		return nil
	}
}

// terminate sends SIGTERM and requires a clean exit, which a race
// report in the child also prevents.
func (d *daemon) terminate() {
	d.t.Helper()
	if err := d.signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("naradad after SIGTERM: %v, want exit status 0", err)
	}
}

// waitUntil polls cond until it holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after %v", what, waitLimit)
		}
	}
}

func dial(t *testing.T, addr string) *jms.Connection {
	t.Helper()
	c, err := jms.Dial(addr, t.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// seqs collects the "seq" property of delivered messages, in delivery
// order.
type seqs struct {
	mu  sync.Mutex
	got []int64
}

func (s *seqs) listen(m *message.Message) {
	v, _ := m.Property("seq")
	n, _ := v.AsLong()
	s.mu.Lock()
	s.got = append(s.got, n)
	s.mu.Unlock()
}

func (s *seqs) snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.got...)
}

// reading is one of the paper's monitoring messages on topic power,
// numbered by its "seq" property.
func reading(seq int64) *message.Message {
	m := gridgen.MonitoringMessage(1, seq)
	m.Dest = message.Topic("power")
	m.SetProperty("seq", message.Long(seq))
	return m
}

// registerDurable starts naradad on dir, subscribes the durable name
// and stops the daemon gracefully: the next daemon on dir starts with
// the durable registered and disconnected, so every message published
// to it goes to its backlog.
func registerDurable(t *testing.T, dir, name string, flags ...string) {
	t.Helper()
	d := start(t, append([]string{"-listen", "127.0.0.1:0", "-data-dir", dir, "-stats", "0"}, flags...)...)
	c := dial(t, d.addr())
	if _, err := c.SubscribeDurable(message.Topic("power"), "", name, func(*message.Message) {}); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	d.terminate()
}

// replayDurable attaches to the durable name on a daemon at addr and
// returns the seqs it delivers once at least n have arrived.
func replayDurable(t *testing.T, addr, name string, n int) []int64 {
	t.Helper()
	var got seqs
	if _, err := dial(t, addr).SubscribeDurable(message.Topic("power"), "", name, got.listen); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "durable backlog replay", func() bool { return len(got.snapshot()) >= n })
	return got.snapshot()
}

// TestDBNTree runs the paper's Distributed Broker Network as three
// naradad processes in a tree, b3 → b2 → b1: every message published on
// b1 reaches a subscriber on b3 across both links.
func TestDBNTree(t *testing.T) {
	broker := func(id string, peer ...string) *daemon {
		args := []string{"-listen", "127.0.0.1:0", "-id", id, "-routing", "tree", "-stats", "0"}
		for _, p := range peer {
			args = append(args, "-peer", p)
		}
		return start(t, args...)
	}
	b1 := broker("b1")
	b2 := broker("b2", b1.addr())
	b3 := broker("b3", b2.addr())
	b2.waitLog(`linked to peer "b1"`)
	b3.waitLog(`linked to peer "b2"`)

	// Subscribe on the far leaf; its interest propagates b3 → b2 → b1
	// asynchronously, so probes go out from b1 until one arrives.
	var got seqs
	probed := make(chan struct{})
	var once sync.Once
	if _, err := dial(t, b3.addr()).Subscribe(message.Topic("power"), "", func(m *message.Message) {
		if _, probe := m.Property("probe"); probe {
			once.Do(func() { close(probed) })
			return
		}
		got.listen(m)
	}); err != nil {
		t.Fatal(err)
	}
	pub := dial(t, b1.addr())
	deadline := time.After(waitLimit)
	for waiting := true; waiting; {
		probe := message.NewText("probe")
		probe.Dest = message.Topic("power")
		probe.SetProperty("probe", message.Bool(true))
		if err := pub.Publish(probe); err != nil {
			t.Fatal(err)
		}
		select {
		case <-probed:
			waiting = false
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("no probe crossed b1 → b2 → b3 in %v", waitLimit)
		}
	}

	const n = 10
	for seq := int64(1); seq <= n; seq++ {
		if err := pub.Publish(reading(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "10 messages from b1 at b3", func() bool { return len(got.snapshot()) >= n })
	if all := got.snapshot(); !slices.Equal(slices.Sorted(slices.Values(all)), upTo(n)) {
		t.Fatalf("b3 received seqs %v, want 1…%d once each", all, n)
	}
	for _, b := range []*daemon{b3, b2, b1} {
		b.terminate()
	}
}

// TestConnMemoryCliff checks -max-conn-mem as the total connection
// budget, 256 KiB charged per connection: at 512 KiB two clients are
// admitted, a third is refused, and once one closes a new client is
// admitted again — the paper's admission cliff and its recovery.
func TestConnMemoryCliff(t *testing.T) {
	help := start(t, "-h")
	help.waitLog(`-max-conn-mem int\s+total connection memory budget in bytes, 256 KiB charged per connection`)

	d := start(t, "-listen", "127.0.0.1:0", "-max-conn-mem", "524288", "-stats", "0")
	addr := d.addr()
	conns := make([]*jms.Connection, 2)
	for i := range conns {
		c, err := jms.Dial(addr, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if c, err := jms.DialTimeout(addr, "over", time.Second); err == nil {
		_ = c.Close()
		t.Fatal("a third connection was admitted within two connections' budget")
	}

	_ = conns[0].Close()
	// The budget returns when the daemon has torn the connection down,
	// which a dial may race, so a refusal is retried.
	waitUntil(t, "a new client admitted after one closed", func() bool {
		c, err := jms.DialTimeout(addr, "after", time.Second)
		if err != nil {
			return false
		}
		defer c.Close()
		return c.Ping() == nil
	})
	d.terminate()
}

// TestDurableSurvivesKill checks crash recovery: a durable's fsynced,
// acknowledged backlog survives kill -9 and is replayed, in order, to
// the durable's next subscriber.
func TestDurableSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-listen", "127.0.0.1:0", "-data-dir", dir, "-fsync", "-stats", "0"}
	registerDurable(t, dir, "crash", "-fsync")

	d := start(t, flags...)
	pub := dial(t, d.addr())
	for seq := int64(1); seq <= 5; seq++ {
		if err := pub.PublishSync(reading(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.signal(syscall.SIGKILL); err == nil {
		t.Fatal("naradad exited 0 on SIGKILL")
	}

	d = start(t, flags...)
	d.requireClean(false)
	if got := replayDurable(t, d.addr(), "crash", 5); !slices.Equal(got, upTo(5)) {
		t.Fatalf("durable replayed seqs %v after kill -9, want [1 2 3 4 5]", got)
	}
	d.terminate()
}

// TestGracefulShutdown checks SIGTERM with -data-dir: under PublishSync
// load into a durable's backlog, and again the moment naradad logs its
// first line, it exits 0 and marks its log clean, and the durable then
// receives every acknowledged message in order.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-listen", "127.0.0.1:0", "-data-dir", dir, "-stats", "0"}
	registerDurable(t, dir, "graceful")

	d := start(t, flags...)
	d.requireClean(true)
	pub := dial(t, d.addr())
	var acked atomic.Int64 // the last seq PublishSync returned for
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for seq := int64(1); pub.PublishSync(reading(seq)) == nil; seq++ {
			acked.Store(seq)
		}
	}()
	waitUntil(t, "50 acknowledged publishes", func() bool { return acked.Load() >= 50 })
	d.terminate()
	<-loadDone

	// The signal handler must be in before anything is logged; startup
	// then completes before the clean shutdown. A handler installed
	// after the listener opens loses this race only about half the
	// time, hence three tries.
	for range 3 {
		d = start(t, flags...)
		d.requireClean(true)
		d.terminate()
	}

	d = start(t, flags...)
	d.requireClean(true)
	// A publish cut off by the signal may have been stored without its
	// acknowledgement arriving, so the replay may run past the last
	// acknowledged seq.
	n := int(acked.Load())
	if got := replayDurable(t, d.addr(), "graceful", n); !slices.Equal(got[:n], upTo(n)) {
		t.Fatalf("durable replayed seqs %v, want 1…%d in order first", got, n)
	}
	d.terminate()
}

// upTo returns the seqs 1…n.
func upTo(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}
