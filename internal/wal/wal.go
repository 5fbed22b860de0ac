// Package wal is an append-only segmented write-ahead log with
// CRC-framed records, group-commit batching, and snapshot+replay
// recovery, layered over the walfs storage seam (disk for daemons,
// in-memory + fault injection for tests).
//
// A log directory holds numbered segments (seg-%016x.wal), at most one
// installed snapshot (snap-%016x), and optionally a clean-shutdown
// marker. Snapshot generation G captures the state after every record
// in segments numbered below G, and is itself stored in the same
// CRC-framed record format — re-emitted, compacted operations — so
// recovery replays a snapshot and a segment tail through one code path.
//
// Record framing is [crc32c(payload)][len][payload] with little-endian
// u32 header fields. Payload contents are owner-defined; the log never
// inspects them.
//
// Durability contract: Append returns after the record is written (and,
// with Options.Fsync, synced) to the current segment, so an
// acknowledgement sent after Append implies the operation survives a
// crash. Writes are group-committed on the appenders' own goroutines:
// each Append frames its record into a shared pending batch, and one
// appender at a time owns the file and writes everything pending with a
// single write and a single fsync, while the appenders that arrive
// meanwhile wait for the next batch. The first I/O error poisons the
// log — every later Append returns it — which keeps the successful
// appends an exact prefix of the requested ones. Segment rotation syncs
// the finished segment even with Fsync off, so a torn tail can only
// ever exist in the final segment.
//
// A Persister (persister.go) is the skeleton both state owners' journals
// share — open with replay and compaction, attach, record, close clean —
// and states the quiescence rule those owners must keep.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gridmon/internal/walfs"
)

const (
	headerSize = 8
	// maxRecord bounds a framed length field during recovery: anything
	// larger is treated as a torn or corrupt header, not an allocation.
	maxRecord = 1 << 28

	cleanMarker = "clean"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: closed")

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; a segment that has
	// reached it is synced and closed before the next batch starts a
	// new one. 0 means 4 MiB.
	SegmentBytes int64
	// Fsync makes every group commit sync before acknowledging, so
	// Append == durable. Off, data is durable only at rotation,
	// snapshot, and clean shutdown.
	Fsync bool
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 4 << 20
	}
	return o.SegmentBytes
}

// RecoverInfo reports what Open replayed.
type RecoverInfo struct {
	// Records is how many records were applied (snapshot + segments).
	Records uint64
	// TruncatedTail is how many torn trailing bytes were discarded
	// from the final segment.
	TruncatedTail uint64
	// CleanStart reports that a valid clean-shutdown marker let Open
	// skip the segment scan entirely.
	CleanStart bool
	// SnapshotGen is the generation of the snapshot replayed (0 when
	// none existed).
	SnapshotGen uint64
	// Segments is how many segment files were scanned.
	Segments int
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	RecordsAppended     uint64 `json:"records_appended"`
	BytesLogged         uint64 `json:"bytes_logged"`
	Fsyncs              uint64 `json:"fsyncs"`
	Snapshots           uint64 `json:"snapshots"`
	ReplayRecords       uint64 `json:"replay_records"`
	ReplayTruncatedTail uint64 `json:"replay_truncated_tail"`
	CleanStart          bool   `json:"clean_start"`
}

// maxRetainedBatch caps the batch buffer a log keeps between commits,
// the same rule wire.FrameWriter applies to its encode buffer: one
// oversized batch must not pin its memory for the log's lifetime.
const maxRetainedBatch = 64 << 10

// Log is a segmented write-ahead log. Append is safe for concurrent
// use; Snapshot, CloseClean and Close must not race each other.
type Log struct {
	fs   walfs.FS
	opts Options

	mu sync.Mutex
	// cond (on mu) wakes appenders waiting for the file's owner to
	// finish a batch.
	cond sync.Cond
	// pending holds the framed records no owner has taken yet; spare is
	// the previous batch's buffer, which the next owner swaps in.
	pending, spare []byte
	// framed numbers every record Append has framed; records numbered up
	// to committed are written (and synced, under Fsync).
	framed, committed uint64
	// busy marks the file state as owned: by an appender writing a
	// batch, or by Snapshot or writeMarker.
	busy   bool
	closed bool
	err    error // first I/O error; poisons the log

	// File state: touched by the owner (see busy) with mu released, and
	// by Close with mu held once nothing is pending.
	cur     walfs.File
	curNum  uint64
	curSize int64

	recordsAppended atomic.Uint64
	bytesLogged     atomic.Uint64
	fsyncs          atomic.Uint64
	snapshots       atomic.Uint64
	recover         RecoverInfo
}

func segName(n uint64) string  { return fmt.Sprintf("seg-%016x.wal", n) }
func snapName(g uint64) string { return fmt.Sprintf("snap-%016x", g) }

func parseNum(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	return n, err == nil
}

// frame appends one CRC-framed record to buf; encode appends the
// payload, in place after the header.
func frame(buf []byte, encode func(buf []byte) []byte) []byte {
	start := len(buf)
	buf = encode(append(buf, make([]byte, headerSize)...))
	payload := buf[start+headerSize:]
	binary.LittleEndian.PutUint32(buf[start:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(payload)))
	return buf
}

// scan walks framed records in data, calling apply for each valid
// payload. It returns the offset just past the last valid record and
// how many records were applied. A short header, an oversized length, a
// length past the end, or a CRC mismatch all stop the scan at the
// current offset (the torn-tail boundary); only apply's own error is
// returned.
func scan(data []byte, apply func([]byte) error) (consumed int64, records uint64, err error) {
	off := 0
	for {
		if len(data)-off < headerSize {
			return int64(off), records, nil
		}
		want := binary.LittleEndian.Uint32(data[off:])
		n := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord || int(n) > len(data)-off-headerSize {
			return int64(off), records, nil
		}
		payload := data[off+headerSize : off+headerSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != want {
			return int64(off), records, nil
		}
		if err := apply(payload); err != nil {
			return int64(off), records, err
		}
		records++
		off += headerSize + int(n)
	}
}

func readAll(f walfs.File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size == 0 {
		return data, nil
	}
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// Open recovers the log in dir fs and returns it ready for appends:
// it replays the latest snapshot and then every segment at or above the
// snapshot's generation through apply, truncates a torn tail off the
// final segment, prunes files an installed snapshot obsoleted, and
// honors (then removes) a clean-shutdown marker — a valid marker is
// only an optimization that skips the segment scan; correctness never
// depends on it, because it is ignored whenever any covered segment has
// data.
func Open(vfs walfs.FS, opts Options, apply func(rec []byte) error) (*Log, RecoverInfo, error) {
	names, err := vfs.List()
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	var segs []uint64
	var snaps []uint64
	markerSeen := false
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			_ = vfs.Remove(name) // crashed mid-snapshot; never installed
			continue
		}
		if n, ok := parseNum(name, "seg-", ".wal"); ok {
			segs = append(segs, n)
		} else if g, ok := parseNum(name, "snap-", ""); ok {
			snaps = append(snaps, g)
		} else if name == cleanMarker {
			markerSeen = true
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	var gen uint64
	if len(snaps) > 0 {
		gen = snaps[len(snaps)-1]
		for _, g := range snaps[:len(snaps)-1] {
			_ = vfs.Remove(snapName(g))
		}
	}
	// Prune segments the snapshot covers (a crash can land between
	// snapshot install and prune).
	live := segs[:0]
	for _, n := range segs {
		if n < gen {
			_ = vfs.Remove(segName(n))
		} else {
			live = append(live, n)
		}
	}
	segs = live

	// A clean marker is trusted only when it matches the installed
	// snapshot and every live segment is empty; anything else means a
	// crash raced the shutdown and the scan must run.
	clean := false
	if markerSeen {
		if data, err := readFile(vfs, cleanMarker); err == nil {
			if g, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 16, 64); perr == nil && len(snaps) > 0 && g == gen {
				clean = true
			}
		}
		_ = vfs.Remove(cleanMarker)
	}

	info := RecoverInfo{SnapshotGen: gen, Segments: len(segs)}

	if len(snaps) > 0 {
		data, err := readFile(vfs, snapName(gen))
		if err != nil {
			return nil, info, fmt.Errorf("wal: read snapshot: %w", err)
		}
		consumed, records, err := scan(data, apply)
		if err != nil {
			return nil, info, fmt.Errorf("wal: replay snapshot: %w", err)
		}
		if consumed != int64(len(data)) {
			// Snapshots are installed by rename after a full sync; a
			// partial one is corruption, not a torn tail.
			return nil, info, fmt.Errorf("wal: corrupt snapshot %s at offset %d", snapName(gen), consumed)
		}
		info.Records += records
	}

	if clean {
		cleanOK := true
		for _, n := range segs {
			if sz, err := fileSize(vfs, segName(n)); err != nil || sz != 0 {
				cleanOK = false
				break
			}
		}
		clean = cleanOK
	}
	info.CleanStart = clean

	l := &Log{fs: vfs, opts: opts}
	l.cond.L = &l.mu

	for i, n := range segs {
		last := i == len(segs)-1
		f, err := vfs.OpenFile(segName(n), false)
		if err != nil {
			return nil, info, err
		}
		if clean {
			// Marker validated: every live segment is empty.
			if last {
				l.cur, l.curNum, l.curSize = f, n, 0
			} else {
				_ = f.Close()
			}
			continue
		}
		data, err := readAll(f)
		if err != nil {
			_ = f.Close()
			return nil, info, err
		}
		consumed, records, err := scan(data, apply)
		if err != nil {
			_ = f.Close()
			return nil, info, fmt.Errorf("wal: replay %s: %w", segName(n), err)
		}
		info.Records += records
		if consumed != int64(len(data)) {
			if !last {
				// Rotation syncs a segment before its successor opens,
				// so a torn tail anywhere but the end is corruption.
				_ = f.Close()
				return nil, info, fmt.Errorf("wal: corrupt record in %s at offset %d (not final segment)", segName(n), consumed)
			}
			if err := f.Truncate(consumed); err != nil {
				_ = f.Close()
				return nil, info, err
			}
			info.TruncatedTail = uint64(len(data)) - uint64(consumed)
		}
		if last {
			l.cur, l.curNum, l.curSize = f, n, consumed
		} else {
			_ = f.Close()
		}
	}
	if l.cur == nil {
		f, err := vfs.OpenFile(segName(gen), true)
		if err != nil {
			return nil, info, err
		}
		l.cur, l.curNum, l.curSize = f, gen, 0
	}

	l.recover = info
	return l, info, nil
}

func readFile(vfs walfs.FS, name string) ([]byte, error) {
	f, err := vfs.OpenFile(name, false)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f)
}

func fileSize(vfs walfs.FS, name string) (int64, error) {
	f, err := vfs.OpenFile(name, false)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return f.Size()
}

// Append commits one record. It blocks until the record is written to
// the current segment — and synced, under Options.Fsync — so callers
// may acknowledge the operation as soon as Append returns nil.
func (l *Log) Append(payload []byte) error {
	return l.append(func(buf []byte) []byte { return append(buf, payload...) })
}

// append is Append with the payload written by encode straight into the
// pending batch, under l.mu: no copy and no buffer of its own.
func (l *Log) append(encode func(buf []byte) []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.pending = frame(l.pending, encode)
	l.framed++
	seq := l.framed
	// Whoever owns the file is writing an earlier batch: wait for it,
	// then the first appender still uncommitted writes the next one.
	for seq > l.committed && l.err == nil {
		if l.busy {
			l.cond.Wait()
		} else {
			l.commitLocked()
		}
	}
	if seq <= l.committed {
		return nil
	}
	return l.err
}

// commitLocked takes ownership of the file state and writes every
// pending record as one batch, with l.mu released for the I/O. The
// caller holds l.mu; the log has no owner and is not poisoned.
func (l *Log) commitLocked() {
	batch, last := l.pending, l.framed
	l.pending, l.spare = l.spare[:0], nil
	l.busy = true
	l.mu.Unlock()
	err := l.write(batch)
	l.mu.Lock()
	if err == nil {
		l.recordsAppended.Add(last - l.committed)
		l.committed = last
	}
	if cap(batch) <= maxRetainedBatch {
		l.spare = batch[:0]
	}
	l.releaseLocked(err)
}

// releaseLocked ends the caller's ownership of the file state and wakes
// the waiting appenders. A non-nil err poisons the log: the records
// still pending are never written, and their appenders return err.
func (l *Log) releaseLocked(err error) {
	if err != nil {
		l.err = err
		l.pending = l.pending[:0]
	}
	l.busy = false
	l.cond.Broadcast()
}

// write appends one batch to the current segment, rotating first if the
// segment is full. The caller owns the file state.
func (l *Log) write(batch []byte) error {
	if l.curSize >= l.opts.segmentBytes() {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.cur.Write(batch); err != nil {
		return err
	}
	if l.opts.Fsync {
		if err := l.cur.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
	}
	l.curSize += int64(len(batch))
	l.bytesLogged.Add(uint64(len(batch)))
	return nil
}

// Err returns the error that poisoned the log, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// rotate syncs and closes the current segment and opens its successor.
// The sync runs even with Fsync off: it confines torn tails to the
// final segment, which recovery relies on.
func (l *Log) rotate() error {
	if err := l.cur.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	if err := l.cur.Close(); err != nil {
		return err
	}
	f, err := l.fs.OpenFile(segName(l.curNum+1), true)
	if err != nil {
		return err
	}
	l.cur, l.curNum, l.curSize = f, l.curNum+1, 0
	return nil
}

// own commits every pending record and then takes ownership of the file
// state, so whatever the caller writes lands after those records and
// before any later Append. disown hands the file back.
func (l *Log) own() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.commitPendingLocked()
	if l.err != nil {
		return l.err
	}
	l.busy = true
	return nil
}

// disown ends an own, poisoning the log if err is non-nil, and returns
// err.
func (l *Log) disown(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.releaseLocked(err)
	return err
}

// commitPendingLocked waits out the current owner and commits what is
// pending, until the log has neither.
func (l *Log) commitPendingLocked() {
	for l.busy || len(l.pending) > 0 {
		if l.busy {
			l.cond.Wait()
		} else {
			l.commitLocked()
		}
	}
}

// Snapshot compacts the log: dump re-emits the owner's current state as
// records (through the emit callback, same payload format as Append),
// and once the snapshot file is durably installed every older segment
// and snapshot is pruned and a fresh segment begins.
//
// The snapshot captures only what dump emits, so the owner must be
// quiescent for the duration (see Persister).
func (l *Log) Snapshot(dump func(emit func(rec []byte) error) error) error {
	if err := l.own(); err != nil {
		return err
	}
	err := l.snapshot(dump)
	if err == nil {
		l.snapshots.Add(1)
	}
	return l.disown(err)
}

func (l *Log) snapshot(dump func(emit func(rec []byte) error) error) error {
	// Seal the tail: everything the snapshot will cover must be
	// durable before the covering snapshot can replace it.
	if err := l.cur.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	gen := l.curNum + 1
	tmpName := snapName(gen) + ".tmp"
	tmp, err := l.fs.OpenFile(tmpName, true)
	if err != nil {
		return err
	}
	var buf []byte
	werr := dump(func(rec []byte) error {
		buf = frame(buf[:0], func(b []byte) []byte { return append(b, rec...) })
		_, err := tmp.Write(buf)
		return err
	})
	if werr == nil {
		werr = tmp.Sync()
		if werr == nil {
			l.fsyncs.Add(1)
		}
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = l.fs.Remove(tmpName)
		return werr
	}
	if err := l.fs.Rename(tmpName, snapName(gen)); err != nil {
		return err
	}
	// Installed: everything below gen is now redundant.
	if err := l.cur.Close(); err != nil {
		return err
	}
	for n := l.curNum; ; n-- {
		if err := l.fs.Remove(segName(n)); err != nil {
			break // older ones were pruned by an earlier snapshot
		}
		if n == 0 {
			break
		}
	}
	for g := gen - 1; ; g-- {
		if err := l.fs.Remove(snapName(g)); err == nil {
			break // at most one older snapshot exists
		}
		if g == 0 {
			break
		}
	}
	f, err := l.fs.OpenFile(segName(gen), true)
	if err != nil {
		return err
	}
	l.cur, l.curNum, l.curSize = f, gen, 0
	return nil
}

// CloseClean snapshots the owner's state, writes the clean-shutdown
// marker, and closes the log. A following Open can then skip the
// segment scan. Safe to call in place of Close on any shutdown path:
// if the snapshot fails the marker is skipped and the log still closes.
func (l *Log) CloseClean(dump func(emit func(rec []byte) error) error) error {
	err := l.Snapshot(dump)
	if err == nil {
		err = l.writeMarker()
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) writeMarker() error {
	if err := l.own(); err != nil {
		return err
	}
	f, err := l.fs.OpenFile(cleanMarker, true)
	if err != nil {
		return l.disown(err)
	}
	_, err = f.Write([]byte(fmt.Sprintf("%016x\n", l.curNum)))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return l.disown(err)
}

// Close commits the records already appended and closes the current
// segment; every later Append is refused with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.commitPendingLocked()
	return l.cur.Close()
}

// Stats returns current counters, including what recovery replayed.
func (l *Log) Stats() Stats {
	return Stats{
		RecordsAppended:     l.recordsAppended.Load(),
		BytesLogged:         l.bytesLogged.Load(),
		Fsyncs:              l.fsyncs.Load(),
		Snapshots:           l.snapshots.Load(),
		ReplayRecords:       l.recover.Records,
		ReplayTruncatedTail: l.recover.TruncatedTail,
		CleanStart:          l.recover.CleanStart,
	}
}
