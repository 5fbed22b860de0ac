package wal

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gridmon/internal/walfs"
)

// collect opens the log and gathers every replayed payload.
func collect(t *testing.T, fsys walfs.FS, opts Options) (*Log, []string, RecoverInfo) {
	t.Helper()
	var got []string
	l, info, err := Open(fsys, opts, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got, info
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

func wantRecords(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRoundtrip(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			m := walfs.NewMem()
			l, got, _ := collect(t, m, Options{Fsync: fsync})
			wantRecords(t, got)
			appendAll(t, l, "alpha", "beta", "gamma")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, got, info := collect(t, m, Options{Fsync: fsync})
			defer l2.Close()
			wantRecords(t, got, "alpha", "beta", "gamma")
			if info.CleanStart {
				t.Fatal("plain Close must not count as a clean start")
			}
			if info.Records != 3 || info.TruncatedTail != 0 {
				t.Fatalf("info = %+v", info)
			}
		})
	}
}

func TestRotationAndReplay(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{SegmentBytes: 64})
	var want []string
	for i := 0; i < 40; i++ {
		r := fmt.Sprintf("record-%02d", i)
		want = append(want, r)
		appendAll(t, l, r)
	}
	_ = l.Close()
	names, _ := m.List()
	segs := 0
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", names)
	}
	l2, got, info := collect(t, m, Options{})
	defer l2.Close()
	wantRecords(t, got, want...)
	if info.Segments != segs {
		t.Fatalf("info.Segments = %d, want %d", info.Segments, segs)
	}
}

func TestSnapshotCompactsAndPrunes(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		appendAll(t, l, fmt.Sprintf("old-%02d", i))
	}
	// The owner's compacted state: two records replacing twenty.
	err := l.Snapshot(func(emit func([]byte) error) error {
		if err := emit([]byte("state-a")); err != nil {
			return err
		}
		return emit([]byte("state-b"))
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, l, "tail-1", "tail-2")
	if got := l.Stats().Snapshots; got != 1 {
		t.Fatalf("Stats.Snapshots = %d", got)
	}
	_ = l.Close()

	names, _ := m.List()
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") && strings.Contains(n, "0000000000000000") {
			t.Fatalf("snapshot did not prune old segments: %v", names)
		}
	}
	l2, got, info := collect(t, m, Options{})
	defer l2.Close()
	wantRecords(t, got, "state-a", "state-b", "tail-1", "tail-2")
	if info.SnapshotGen == 0 {
		t.Fatalf("info = %+v, want a snapshot generation", info)
	}
}

func TestCloseCleanSkipsScan(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{})
	appendAll(t, l, "a", "b", "c")
	err := l.CloseClean(func(emit func([]byte) error) error {
		return emit([]byte("a+b+c"))
	})
	if err != nil {
		t.Fatalf("CloseClean: %v", err)
	}
	l2, got, info := collect(t, m, Options{})
	wantRecords(t, got, "a+b+c")
	if !info.CleanStart {
		t.Fatal("expected CleanStart after CloseClean")
	}
	if !l2.Stats().CleanStart {
		t.Fatal("Stats.CleanStart not surfaced")
	}
	// The marker is consumed: a crash after this open must not be
	// mistaken for another clean shutdown.
	names, _ := m.List()
	for _, n := range names {
		if n == cleanMarker {
			t.Fatalf("marker survived open: %v", names)
		}
	}
	appendAll(t, l2, "d")
	_ = l2.Close()
	l3, got, info := collect(t, m, Options{})
	defer l3.Close()
	wantRecords(t, got, "a+b+c", "d")
	if info.CleanStart {
		t.Fatal("second open must not report a clean start")
	}
}

func TestStaleMarkerIgnored(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{})
	appendAll(t, l, "a")
	if err := l.CloseClean(func(emit func([]byte) error) error { return emit([]byte("a")) }); err != nil {
		t.Fatal(err)
	}
	// Resurrect a stale marker by hand, then write more data the way a
	// crashed process would have: the marker's covered segment is no
	// longer empty, so it must be distrusted.
	l2, _, _ := collect(t, m, Options{})
	appendAll(t, l2, "b")
	_ = l2.Close()
	var gen uint64
	names, _ := m.List()
	for _, n := range names {
		if g, ok := parseNum(n, "snap-", ""); ok {
			gen = g
		}
	}
	f, _ := m.OpenFile(cleanMarker, true)
	_, _ = f.Write([]byte(fmt.Sprintf("%016x\n", gen)))
	_ = f.Close()

	l3, got, info := collect(t, m, Options{})
	defer l3.Close()
	wantRecords(t, got, "a", "b")
	if info.CleanStart {
		t.Fatal("stale marker over a non-empty segment must not count as clean")
	}
}

// TestTornTailEveryBoundary is the satellite torn-tail table test: a
// log whose final record is truncated at every possible byte boundary,
// or corrupted at every byte offset, must replay exactly the records
// before it and keep working.
func TestTornTailEveryBoundary(t *testing.T) {
	prefix := []string{"first", "second", "third", "fourth"}
	last := "last-record-payload"

	build := func(t *testing.T) (*walfs.Mem, string, int64, int64) {
		m := walfs.NewMem()
		l, _, _ := collect(t, m, Options{})
		appendAll(t, l, prefix...)
		appendAll(t, l, last)
		_ = l.Close()
		names, _ := m.List()
		var seg string
		for _, n := range names {
			if strings.HasPrefix(n, "seg-") {
				seg = n
			}
		}
		f, err := m.OpenFile(seg, false)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		_ = f.Close()
		lastStart := size - int64(headerSize+len(last))
		return m, seg, lastStart, size
	}

	t.Run("truncate", func(t *testing.T) {
		_, _, lastStart, size := build(t)
		for cut := lastStart; cut < size; cut++ {
			m, seg, _, _ := build(t)
			f, _ := m.OpenFile(seg, false)
			if err := f.Truncate(cut); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
			l, got, info := collect(t, m, Options{})
			wantRecords(t, got, prefix...)
			if want := uint64(cut - lastStart); info.TruncatedTail != want {
				t.Fatalf("cut=%d: TruncatedTail = %d, want %d", cut, info.TruncatedTail, want)
			}
			// The log stays usable: the torn tail is gone for good.
			appendAll(t, l, "after")
			_ = l.Close()
			l2, got, _ := collect(t, m, Options{})
			wantRecords(t, got, append(append([]string{}, prefix...), "after")...)
			_ = l2.Close()
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		_, _, lastStart, size := build(t)
		for off := lastStart; off < size; off++ {
			m, seg, _, _ := build(t)
			f, _ := m.OpenFile(seg, false)
			buf := make([]byte, 1)
			if _, err := f.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			flipped := []byte{buf[0] ^ 0xff}
			// walfs files are append-only, so corrupt by truncate+rewrite.
			rest := make([]byte, size-off-1)
			if size-off-1 > 0 {
				if _, err := f.ReadAt(rest, off+1); err != nil {
					t.Fatal(err)
				}
			}
			_ = f.Truncate(off)
			_, _ = f.Write(flipped)
			_, _ = f.Write(rest)
			_ = f.Close()
			l, got, info := collect(t, m, Options{})
			wantRecords(t, got, prefix...)
			if info.TruncatedTail == 0 {
				t.Fatalf("off=%d: corrupted tail not reported as truncated", off)
			}
			_ = l.Close()
		}
	})
}

func TestCorruptionInNonFinalSegmentIsFatal(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{SegmentBytes: 32})
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("rec-%02d", i))
	}
	_ = l.Close()
	names, _ := m.List()
	var first string
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") {
			first = n
			break
		}
	}
	f, _ := m.OpenFile(first, false)
	size, _ := f.Size()
	_ = f.Truncate(size - 1) // tear a non-final segment
	_ = f.Close()
	_, _, err := Open(m, Options{}, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "not final segment") {
		t.Fatalf("Open = %v, want mid-log corruption error", err)
	}
}

// gateFS records the size of every segment Write and holds the first
// Sync until release is closed, so appenders pile up behind the batch
// being committed.
type gateFS struct {
	*walfs.Mem
	release chan struct{}

	mu     sync.Mutex
	writes []int
	syncs  int
}

type gateFile struct {
	walfs.File
	g *gateFS
}

func (g *gateFS) OpenFile(name string, create bool) (walfs.File, error) {
	f, err := g.Mem.OpenFile(name, create)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

func (f gateFile) Write(p []byte) (int, error) {
	f.g.mu.Lock()
	f.g.writes = append(f.g.writes, len(p))
	f.g.mu.Unlock()
	return f.File.Write(p)
}

func (f gateFile) Sync() error {
	f.g.mu.Lock()
	f.g.syncs++
	first := f.g.syncs == 1
	f.g.mu.Unlock()
	if first {
		<-f.g.release
	}
	return f.File.Sync()
}

// waitLocked returns once cond, evaluated under l.mu, holds.
func waitLocked(l *Log, cond func() bool) {
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// checkPerAppender reports whether got holds, for each appender w,
// exactly its records "w<w>-<i>" for i in 0..want[w]-1, in order, and
// nothing else.
func checkPerAppender(got []string, want []int) error {
	next := make([]int, len(want))
	for _, r := range got {
		var w, i int
		if _, err := fmt.Sscanf(r, "w%d-%d", &w, &i); err != nil || w >= len(want) {
			return fmt.Errorf("bad record %q in %v", r, got)
		}
		if i != next[w] {
			return fmt.Errorf("appender %d: record %d replayed where %d was due (replay %v)", w, i, next[w], got)
		}
		next[w]++
	}
	for w := range want {
		if next[w] != want[w] {
			return fmt.Errorf("appender %d: replayed %d records, want %d (replay %v)", w, next[w], want[w], got)
		}
	}
	return nil
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	t.Run("deterministic", func(t *testing.T) {
		// A leader's fsync is held while k appenders queue behind it; they
		// must then share one write and one sync.
		const k = 5
		g := &gateFS{Mem: walfs.NewMem(), release: make(chan struct{})}
		l, _, _ := collect(t, g, Options{Fsync: true})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Append([]byte("w0-0")); err != nil {
				t.Errorf("leader append: %v", err)
			}
		}()
		waitLocked(l, func() bool { return l.framed == 1 })
		for w := 1; w <= k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 2 {
					if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}()
		}
		waitLocked(l, func() bool { return l.framed == 1+k })
		close(g.release)
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rec := headerSize + len("w1-0")
		if len(g.writes) < 2 || g.writes[0] != rec || g.writes[1] != k*rec {
			t.Fatalf("writes = %v, want [%d %d ...]: the %d queued records must share one write", g.writes, rec, k*rec, k)
		}
		if g.syncs != len(g.writes) {
			t.Fatalf("%d syncs for %d writes, want one per batch", g.syncs, len(g.writes))
		}
		_, got, _ := collect(t, g.Mem, Options{})
		want := []int{1}
		for range k {
			want = append(want, 2)
		}
		if err := checkPerAppender(got, want); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("stress", testConcurrentAppendStress)
}

func testConcurrentAppendStress(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{Fsync: true, SegmentBytes: 256})
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%02d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.RecordsAppended != workers*each {
		t.Fatalf("RecordsAppended = %d", st.RecordsAppended)
	}
	_ = l.Close()
	_, got, _ := collect(t, m, Options{})
	want := make([]int, workers)
	for w := range want {
		want[w] = each
	}
	// Per-worker order is preserved even though workers interleave.
	if err := checkPerAppender(got, want); err != nil {
		t.Fatal(err)
	}
}

func TestAppendZeroAlloc(t *testing.T) {
	l, _, _ := collect(t, walfs.NewMem(), Options{})
	defer l.Close()
	rec := make([]byte, 600)
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v times per record, want 0", allocs)
	}
}

// TestConcurrentCrashPointSweep is TestCrashPointSweep with four fsync
// appenders sharing the log, so the fault lands in batches that group
// several appenders' records. After a crash that drops everything
// unsynced, recovery must hold exactly the acknowledged records: none
// lost, none reordered within an appender, and nothing from the failed
// batch or after it.
func TestConcurrentCrashPointSweep(t *testing.T) {
	const appenders, each = 4, 6
	workload := func(t *testing.T, fsys walfs.FS) []int {
		acked := make([]int, appenders)
		l, _, err := Open(fsys, Options{Fsync: true, SegmentBytes: 96}, func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var wg sync.WaitGroup
		for w := range appenders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					err := l.Append([]byte(fmt.Sprintf("w%d-%02d", w, i)))
					if err != nil {
						if !errors.Is(err, walfs.ErrInjected) {
							t.Errorf("appender %d: Append = %v, want nil or the poison error", w, err)
						}
						return
					}
					acked[w]++
				}
			}()
		}
		wg.Wait()
		_ = l.Close()
		return acked
	}

	// Every record costs at most a write and a sync, plus a rotation
	// sync per batch; past that bound no run reaches the fault, and
	// every record is acknowledged.
	const maxOps = 3 * appenders * each
	for _, torn := range []int{0, 3} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			for failAt := 1; failAt <= maxOps; failAt++ {
				m := walfs.NewMem()
				acked := workload(t, walfs.NewFault(m, failAt, torn))
				m.Crash()
				l, got, _ := collect(t, m, Options{})
				_ = l.Close()
				if err := checkPerAppender(got, acked); err != nil {
					t.Fatalf("failAt=%d, acked %v: %v", failAt, acked, err)
				}
			}
		})
	}
}

// TestCloseRacesAppenders closes the log under four appenders while
// three of their records wait behind a held fsync: each Append returns
// nil or ErrClosed, the waiting records are committed rather than
// refused, and the records acknowledged with nil are exactly the ones
// that replay.
func TestCloseRacesAppenders(t *testing.T) {
	const appenders = 4
	g := &gateFS{Mem: walfs.NewMem(), release: make(chan struct{})}
	l, _, _ := collect(t, g, Options{Fsync: true})
	acked := make([]int, appenders)
	var wg sync.WaitGroup
	for w := range appenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("appender %d: Append = %v, want nil or ErrClosed", w, err)
					}
					return
				}
				acked[w]++
			}
		}()
	}
	waitLocked(l, func() bool { return l.framed == appenders })
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	waitLocked(l, func() bool { return l.closed })
	close(g.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for w, n := range acked {
		if n == 0 {
			t.Fatalf("appender %d: a record appended before Close was refused", w)
		}
	}
	_, got, _ := collect(t, g.Mem, Options{})
	if err := checkPerAppender(got, acked); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{})
	_ = l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if err := l.Snapshot(func(func([]byte) error) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v", err)
	}
}

// TestCrashPointSweep drives a fixed workload against the
// fault-injecting FS, failing at every possible I/O, under all four
// crash worlds (unsynced bytes lost or kept × fsync on or off), and
// asserts recovery is always prefix-consistent and never loses a write
// that was acknowledged under fsync.
func TestCrashPointSweep(t *testing.T) {
	const n = 24
	rec := func(i int) string { return fmt.Sprintf("op-%03d", i) }

	// workload appends n records with a mid-stream snapshot; it stops
	// at the first error (the log is poisoned anyway) and returns how
	// many appends were acknowledged.
	workload := func(fsys walfs.FS, fsync bool) (acked int) {
		l, _, err := Open(fsys, Options{Fsync: fsync, SegmentBytes: 96}, func([]byte) error { return nil })
		if err != nil {
			return 0
		}
		defer l.Close()
		for i := 0; i < n; i++ {
			if i == n/2 {
				upto := acked
				err := l.Snapshot(func(emit func([]byte) error) error {
					for j := 0; j < upto; j++ {
						if err := emit([]byte(rec(j))); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return acked
				}
			}
			if err := l.Append([]byte(rec(i))); err != nil {
				return acked
			}
			acked++
		}
		return acked
	}

	// Size the sweep: one clean run counts the I/Os.
	probe := walfs.NewFault(walfs.NewMem(), 0, 0)
	for _, fsync := range []bool{false, true} {
		_ = workload(probe, fsync)
	}
	totalOps := probe.Ops()
	if totalOps < n {
		t.Fatalf("probe run saw only %d ops", totalOps)
	}

	for _, fsync := range []bool{false, true} {
		for _, keepUnsynced := range []bool{false, true} {
			for _, torn := range []int{0, 3} {
				name := fmt.Sprintf("fsync=%v/keep=%v/torn=%d", fsync, keepUnsynced, torn)
				t.Run(name, func(t *testing.T) {
					for failAt := 1; failAt <= totalOps; failAt++ {
						m := walfs.NewMem()
						faulty := walfs.NewFault(m, failAt, torn)
						acked := workload(faulty, fsync)
						if !faulty.Triggered() {
							continue // workload finished before this op count
						}
						if keepUnsynced {
							m.CrashKeepUnsynced()
						} else {
							m.Crash()
						}
						var got []string
						l, info, err := Open(m, Options{}, func(r []byte) error {
							got = append(got, string(r))
							return nil
						})
						if err != nil {
							t.Fatalf("failAt=%d: recovery failed: %v", failAt, err)
						}
						_ = l.Close()
						// Prefix consistency: the replayed sequence is
						// exactly op-0..op-k for some k — no holes, no
						// torn record applied, no reordering.
						for i, r := range got {
							if r != rec(i) {
								t.Fatalf("failAt=%d: record %d = %q, want %q (replay %v, info %+v)", failAt, i, r, rec(i), got, info)
							}
						}
						// Durability: an acknowledged append survives if
						// it was synced (fsync mode) or if the crash kept
						// unsynced bytes.
						if (fsync || keepUnsynced) && len(got) < acked {
							t.Fatalf("failAt=%d: acked %d writes but recovered only %d (info %+v)", failAt, acked, len(got), info)
						}
					}
				})
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	m := walfs.NewMem()
	l, _, _ := collect(t, m, Options{Fsync: true})
	appendAll(t, l, "one", "two")
	st := l.Stats()
	if st.RecordsAppended != 2 || st.BytesLogged == 0 || st.Fsyncs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	_ = l.Close()
	l2, _, _ := collect(t, m, Options{})
	defer l2.Close()
	if st := l2.Stats(); st.ReplayRecords != 2 {
		t.Fatalf("ReplayRecords = %d", st.ReplayRecords)
	}
}

func TestCodecRoundtrip(t *testing.T) {
	buf := AppendUvarint(nil, 42)
	buf = AppendString(buf, "hello")
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendUvarint(buf, 1<<40)
	d := NewDec(buf)
	if v := d.Uvarint(); v != 42 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := d.String(); s != "hello" {
		t.Fatalf("String = %q", s)
	}
	if b := d.Bytes(); len(b) != 3 || b[2] != 3 {
		t.Fatalf("Bytes = %v", b)
	}
	if v := d.Uvarint(); v != 1<<40 {
		t.Fatalf("Uvarint = %d", v)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if len(d.Rest()) != 0 {
		t.Fatalf("Rest = %v", d.Rest())
	}
	// Underflow is sticky, not a panic.
	d2 := NewDec([]byte{0x05, 'a'})
	_ = d2.Bytes()
	if !errors.Is(d2.Err(), ErrBadRecord) {
		t.Fatalf("Err = %v", d2.Err())
	}
	if s := d2.String(); s != "" {
		t.Fatalf("post-error String = %q", s)
	}
}
