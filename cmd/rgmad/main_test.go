package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmahttp"
)

// childEnv, when set, makes this test binary run rgmad's main instead
// of its tests: the tests start real daemons from os.Args[0], so under
// -race the daemons are race-instrumented too.
const childEnv = "RGMAD_TEST_CHILD"

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

// daemon is one rgmad child process and the stderr it has logged.
type daemon struct {
	t     *testing.T
	cmd   *exec.Cmd
	stdin io.WriteCloser // held open for the child's lifetime

	mu   sync.Mutex
	out  []byte
	grew chan struct{} // closed and replaced whenever out grows

	done chan struct{} // closed once stderr ended and the child was reaped
	exit error         // cmd.Wait's result, set before done closes

	httpAddr, binAddr string
}

// start runs rgmad and returns once both ports serve.
func start(t *testing.T, extra ...string) *daemon {
	d := spawn(t, extra...)
	d.binAddr = d.waitLog(`binary transport on (\S+)`)[1]
	d.httpAddr = d.waitLog(`listening on (\S+)`)[1]
	return d
}

// spawn runs rgmad with both ports on loopback and extra flags.
// Cleanup kills it, and fails the test if its stderr holds a race
// report.
func spawn(t *testing.T, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0", "-stats", "0"}, extra...)
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
			t.Errorf("rgmad %q:\n%s", args, log)
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
			d.t.Fatalf("rgmad exited (%v) without logging %q", d.exit, pattern)
		}
		select {
		case <-grew:
		case <-d.done:
			exited = true
		case <-deadline:
			d.t.Fatalf("rgmad logged no %q in %v", pattern, waitLimit)
		}
	}
}

// requireClean fails the test unless the daemon's WAL recovery line
// reports clean=want.
func (d *daemon) requireClean(want bool) {
	d.t.Helper()
	if got := d.waitLog(`recovered .*clean=(\w+)`)[1]; got != fmt.Sprint(want) {
		d.t.Fatalf("rgmad recovered with clean=%s, want %v", got, want)
	}
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
		d.t.Fatalf("rgmad still running %v after %v", waitLimit, sig)
		return nil
	}
}

// terminate sends SIGTERM and requires a clean exit, which a race
// report in the child also prevents.
func (d *daemon) terminate() {
	d.t.Helper()
	if err := d.signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("rgmad after SIGTERM: %v, want exit status 0", err)
	}
}

// waitUntil polls cond every period until it holds.
func waitUntil(t *testing.T, what string, period time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); !cond(); time.Sleep(period) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after %v", what, waitLimit)
		}
	}
}

func dialBin(t *testing.T, addr string) *rgmabin.Client {
	t.Helper()
	c, err := rgmabin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// createTables creates prefix0…prefix{n-1} with the load tables'
// schema, the rgma_stream benchmark's.
func createTables(t *testing.T, create func(sql string) error, prefix string, n int) []string {
	t.Helper()
	tables := make([]string, n)
	for i := range tables {
		tables[i] = fmt.Sprintf("%s%d", prefix, i)
		if err := create("CREATE TABLE " + tables[i] + " (genid INTEGER PRIMARY KEY, seq INTEGER, power DOUBLE PRECISION, site CHAR(20))"); err != nil {
			t.Fatal(err)
		}
	}
	return tables
}

// insertSQL is producer w's row number seq.
func insertSQL(table string, w, seq int) string {
	return fmt.Sprintf("INSERT INTO %s (genid, seq, power, site) VALUES (%d, %d, 480.5, 'site-%04d')", table, w, seq, w)
}

// binProducer opens an rgmabin producer on table over its own
// connection and returns its batch insert.
func binProducer(addr, table string) (func([]string) error, error) {
	c, err := rgmabin.Dial(addr)
	if err != nil {
		return nil, err
	}
	p, err := c.CreatePrimaryProducer(table, 30*time.Second, time.Minute)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return func(sqls []string) error {
		err := p.InsertBatch(sqls)
		if err != nil {
			_ = c.Close()
		}
		return err
	}, nil
}

// produce runs one producer per table, producer i inserting rows 1…rows
// (all of them when rows is 0: until an insert fails) into tables[i] in
// batches; acked[i] is the last row of i's last acknowledged batch. It
// returns the first failure.
func produce(tables []string, rows, batch int, acked []atomic.Int64, newProducer func(table string) (func([]string) error, error)) error {
	errs := make([]error, len(tables))
	var wg sync.WaitGroup
	for i, table := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			insert, err := newProducer(table)
			if err != nil {
				errs[i] = err
				return
			}
			var pending []string
			for seq := 1; rows == 0 || seq <= rows; seq++ {
				pending = append(pending, insertSQL(table, i, seq))
				if len(pending) < batch && seq != rows {
					continue
				}
				if err := insert(pending); err != nil {
					errs[i] = fmt.Errorf("%s row %d: %w", table, seq, err)
					return
				}
				acked[i].Store(int64(seq))
				pending = pending[:0]
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

const (
	smokeTables = 4   // one producer and one continuous consumer each
	smokeRows   = 250 // per producer
)

// smokeRun tallies one transport's smoke run per table: the last row
// acknowledged and the tuples its consumer observed.
type smokeRun struct {
	acked, seen [smokeTables]atomic.Int64
}

func (r *smokeRun) allSeen() bool {
	for i := range r.seen {
		if r.seen[i].Load() < smokeRows {
			return false
		}
	}
	return true
}

func (r *smokeRun) check(t *testing.T) {
	for i := range r.seen {
		if acked, seen := r.acked[i].Load(), r.seen[i].Load(); acked != smokeRows || seen != smokeRows {
			t.Errorf("table %d: %d rows acknowledged and %d observed, want %d of each", i, acked, seen, smokeRows)
		}
	}
}

// TestRGMASmoke drives one rgmad over both transports: 4 producers on 4
// tables insert 250 rows each, every insert is acknowledged, and a
// continuous consumer per table observes all 250 of its table's rows.
func TestRGMASmoke(t *testing.T) {
	d := start(t)
	t.Run("http", func(t *testing.T) {
		var r smokeRun
		c := rgmahttp.NewClient(d.httpAddr)
		tables := createTables(t, c.CreateTable, "http", smokeTables)
		var consumers []*rgmahttp.RemoteConsumer
		for _, table := range tables {
			cons, err := c.CreateConsumer("SELECT * FROM "+table, "continuous")
			if err != nil {
				t.Fatal(err)
			}
			consumers = append(consumers, cons)
		}
		if err := produce(tables, smokeRows, 1, r.acked[:], func(table string) (func([]string) error, error) {
			p, err := c.CreatePrimaryProducer(table, 30*time.Second, time.Minute)
			if err != nil {
				return nil, err
			}
			return func(sqls []string) error { return p.Insert(sqls[0]) }, nil
		}); err != nil {
			t.Fatal(err)
		}
		// Pop every 100 ms, the paper's subscriber period.
		waitUntil(t, "http consumers observe every insert", 100*time.Millisecond, func() bool {
			for i, cons := range consumers {
				tuples, err := cons.Pop()
				if err != nil {
					t.Fatal(err)
				}
				r.seen[i].Add(int64(len(tuples)))
			}
			return r.allSeen()
		})
		r.check(t)
	})
	t.Run("bin", func(t *testing.T) {
		var r smokeRun
		tables := createTables(t, dialBin(t, d.binAddr).CreateTable, "bin", smokeTables)
		for i, table := range tables {
			// A connection per consumer, so the server's slow-consumer
			// policy sees one stream per socket, as a real consumer's.
			if _, err := dialBin(t, d.binAddr).CreateConsumer("SELECT * FROM "+table, "continuous",
				func(tuples []rgmabin.PoppedTuple) { r.seen[i].Add(int64(len(tuples))) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := produce(tables, smokeRows, 16, r.acked[:], func(table string) (func([]string) error, error) {
			return binProducer(d.binAddr, table)
		}); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "pushed tuples reach every bin consumer", time.Millisecond, r.allSeen)
		r.check(t)
	})
	d.terminate()
}

// loadUntilStopped runs produce's unbounded load of 16-row batches on
// load0 and load1 over the binary port, and waits until each producer
// has 20 batches acknowledged. stopped waits for the producers to fail
// once the daemon has gone.
func loadUntilStopped(t *testing.T, d *daemon) (acked []atomic.Int64, stopped func()) {
	t.Helper()
	tables := createTables(t, dialBin(t, d.binAddr).CreateTable, "load", 2)
	acked = make([]atomic.Int64, len(tables))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = produce(tables, 0, 16, acked, func(table string) (func([]string) error, error) {
			return binProducer(d.binAddr, table)
		})
	}()
	waitUntil(t, "20 acknowledged batches per producer", time.Millisecond, func() bool {
		return acked[0].Load() >= 20*16 && acked[1].Load() >= 20*16
	})
	return acked, func() { <-done }
}

// requireHistory fails unless a history consumer on load0 at addr pops
// every row 1…acked that producer 0 had acknowledged.
func requireHistory(t *testing.T, addr string, acked int64) {
	t.Helper()
	cons, err := rgmahttp.NewClient(addr).CreateConsumer("SELECT * FROM load0", "history")
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := cons.Pop()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("history consumer on load0 popped 0 tuples after restart")
	}
	have := map[int64]bool{}
	for _, tu := range tuples {
		seq, err := strconv.ParseInt(tu.Row[1], 10, 64)
		if err != nil {
			t.Fatalf("tuple %v: seq: %v", tu.Row, err)
		}
		have[seq] = true
	}
	for seq := int64(1); seq <= acked; seq++ {
		if !have[seq] {
			t.Fatalf("row %d of load0 was acknowledged before the restart but is not in history (%d tuples popped, %d acknowledged)", seq, len(tuples), acked)
		}
	}
}

// TestGracefulShutdown checks SIGTERM with -data-dir: under binary
// insert load, and again the moment rgmad logs its first line, before
// either port serves, it exits 0 and marks its log clean for the next
// start, and the binary producers keep every acknowledged row across
// both restarts.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	d := start(t, "-data-dir", dir)
	acked, stopped := loadUntilStopped(t, d)
	d.terminate()
	stopped()

	d = start(t, "-data-dir", dir)
	d.requireClean(true)
	requireHistory(t, d.httpAddr, acked[0].Load())
	d.terminate()

	// The signal handler must be in before anything is logged; startup
	// then completes before the clean shutdown.
	d = spawn(t, "-data-dir", dir)
	d.requireClean(true)
	d.terminate()

	d = start(t, "-data-dir", dir)
	d.requireClean(true)
	requireHistory(t, d.httpAddr, acked[0].Load())
	d.terminate()
}

// TestCrashRecovery checks kill -9 under load with -data-dir -fsync:
// schemas, producers and acknowledged rows survive, and a history
// consumer on the restarted daemon pops every acknowledged row.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := start(t, "-data-dir", dir, "-fsync")
	acked, stopped := loadUntilStopped(t, d)
	if err := d.signal(syscall.SIGKILL); err == nil {
		t.Fatal("rgmad exited 0 on SIGKILL")
	}
	stopped()

	d = start(t, "-data-dir", dir, "-fsync")
	d.requireClean(false)
	requireHistory(t, d.httpAddr, acked[0].Load())
	d.terminate()
}

// TestStatsEndpoint checks the daemon's own wiring of GET /stats with
// -data-dir and the binary port: after acknowledged binary inserts it
// counts them, carries the WAL's counters with the clean-start flag the
// recovery line logged, and the binary writers' egress. The second run
// restarts on the same directory, so both clean-start values are seen.
func TestStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		d := start(t, "-data-dir", dir)
		clean := d.waitLog(`recovered .*clean=(\w+)`)[1]
		table := fmt.Sprintf("stats%d", run)
		createTables(t, dialBin(t, d.binAddr).CreateTable, table, 1)
		var seen atomic.Int64
		if _, err := dialBin(t, d.binAddr).CreateConsumer("SELECT * FROM "+table+"0", "continuous",
			func(tuples []rgmabin.PoppedTuple) { seen.Add(int64(len(tuples))) }); err != nil {
			t.Fatal(err)
		}
		acked := make([]atomic.Int64, 1)
		if err := produce([]string{table + "0"}, 64, 16, acked, func(table string) (func([]string) error, error) {
			return binProducer(d.binAddr, table)
		}); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "pushed tuples reach the consumer", time.Millisecond, func() bool { return seen.Load() == 64 })

		st, err := rgmahttp.NewClient(d.httpAddr).Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Inserts != uint64(acked[0].Load()) {
			t.Errorf("run %d: /stats inserts = %d, want the %d acknowledged", run, st.Inserts, acked[0].Load())
		}
		if st.WAL == nil || st.WAL.RecordsAppended == 0 || fmt.Sprint(st.WAL.CleanStart) != clean {
			t.Errorf("run %d: /stats wal = %+v, want records appended and clean_start=%s as logged", run, st.WAL, clean)
		}
		if st.BinEgress == nil || st.BinEgress.WriterFlushes == 0 {
			t.Errorf("run %d: /stats bin_egress = %+v, want writer flushes", run, st.BinEgress)
		}
		d.terminate()
	}
}
