// Connection writer: the goroutine that owns a stream connection's
// outbound side, for every connection of both daemons — naradad's
// clients and broker peer links, rgmad's binary R-GMA port.

package wire

import (
	"cmp"
	"net"
	"sync"
	"sync/atomic"
)

// MaxWriteBatch caps how many bytes of queued frames the writer encodes
// into one buffer before flushing to the socket; the jms client caps a
// read burst's batched acks the same way.
const MaxWriteBatch = 64 << 10

// writeBufPool recycles encode buffers across connection lifetimes,
// behind a pointer so Put doesn't box the slice header.
var writeBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Release returns a consumed frame to its pool: pooled Deliver frames
// and DeliverBatch envelopes go back, everything else is left to the
// GC. Only a frame's final consumer may call it, exactly once.
func Release(f Frame) {
	switch d := f.(type) {
	case *Deliver:
		PutDeliver(d)
	case *DeliverBatch:
		PutDeliverBatch(d)
	}
}

// EgressMeters counts egress on a server's connection writers; one
// server's writers share one. The zero value is ready to use.
type EgressMeters struct {
	flushes, frames, mergedPushes, slowDrops atomic.Uint64
}

// EgressStats snapshots EgressMeters for naradad's "transport_egress"
// and rgmad's "bin_egress": socket writes, the frames they carried (by
// FrameCount, before merging), R-GMA pushes merged into the previous
// push frame, and connections dropped for a full queue.
type EgressStats struct {
	WriterFlushes     uint64  `json:"writer_flushes"`
	WriterFrames      uint64  `json:"writer_frames"`
	MergedPushes      uint64  `json:"merged_pushes"`
	SlowConsumerDrops uint64  `json:"slow_consumer_drops"`
	FramesPerFlush    float64 `json:"frames_per_flush"`
}

// Stats snapshots the meters.
func (m *EgressMeters) Stats() EgressStats {
	fl, fr := m.flushes.Load(), m.frames.Load()
	es := EgressStats{WriterFlushes: fl, WriterFrames: fr,
		MergedPushes: m.mergedPushes.Load(), SlowConsumerDrops: m.slowDrops.Load()}
	if fl > 0 {
		es.FramesPerFlush = float64(fr) / float64(fl)
	}
	return es
}

// SendResult reports what TrySend did with a frame.
type SendResult int

const (
	SendOK   SendResult = iota // queued: the writer owns the frame
	SendFull                   // queue full: frame released, the connection should drop
	SendDead                   // writer stopped: frame released
)

// FrameWriter owns one connection's outbound side: a bounded frame
// queue that one goroutine (Run) drains into coalesced socket writes.
// Senders never block, and what to do about a full queue is the
// server's policy. Every frame handed over is released exactly once, a
// DeliverBatch as a whole, never per entry.
type FrameWriter struct {
	conn net.Conn
	out  chan Frame
	done chan struct{}
	stop sync.Once
	eg   *EgressMeters

	// quit guards the enqueue/shutdown race: senders enqueue under the
	// read lock, the exiting writer sets dead under the write lock and
	// then drains the queue, so a frame is either drained by the writer
	// or refused (and released) by its sender, never both or neither.
	quit sync.RWMutex
	dead bool
	// overflowed latches the first SendFull, so a connection counts as
	// one slow-consumer drop however many sends find its queue full.
	overflowed atomic.Bool
}

// NewFrameWriter returns a writer for conn with a queue of the given
// length, counting into eg. Start it with go w.Run().
func NewFrameWriter(conn net.Conn, queue int, eg *EgressMeters) *FrameWriter {
	return &FrameWriter{conn: conn, out: make(chan Frame, queue), done: make(chan struct{}), eg: eg}
}

// Conn returns the connection the writer writes to.
func (w *FrameWriter) Conn() net.Conn { return w.conn }

// TrySend enqueues f without blocking. The frame's ownership transfers
// to the writer only on SendOK; on SendFull and SendDead it has already
// been released. Safe for concurrent use.
func (w *FrameWriter) TrySend(f Frame) SendResult {
	w.quit.RLock()
	if w.dead {
		w.quit.RUnlock()
		Release(f)
		return SendDead
	}
	select {
	case w.out <- f:
		w.quit.RUnlock()
		return SendOK
	default:
		w.quit.RUnlock()
		Release(f)
		if w.overflowed.CompareAndSwap(false, true) {
			w.eg.slowDrops.Add(1)
		}
		return SendFull
	}
}

// Stop makes Run return without closing the connection (a peer-link
// upgrade hands it to a new writer). Safe to call more than once.
func (w *FrameWriter) Stop() { w.stop.Do(func() { close(w.done) }) }

// Run is the writer goroutine body. Frames already queued when it wakes
// are encoded into one pooled buffer (a DeliverBatch splices its shared
// payload once per entry, R-GMA pushes follow the pushMerge rule) and
// written with one call. Run returns on Stop, or after closing the
// connection on a write or encode error, and releases the frames still
// queued on its way out.
func (w *FrameWriter) Run() {
	bp := writeBufPool.Get().(*[]byte)
	buf := *bp
	pushes := pushMerge{merges: &w.eg.mergedPushes}
	defer func() {
		w.quit.Lock()
		w.dead = true
		w.quit.Unlock()
		for len(w.out) > 0 {
			Release(<-w.out)
		}
		if cap(buf) <= MaxWriteBatch {
			*bp = buf[:0]
			writeBufPool.Put(bp)
		}
	}()
	for {
		var f Frame
		select {
		case f = <-w.out:
		case <-w.done:
			return
		}
		var err error
		if buf, err = w.flush(buf, f, &pushes); err != nil {
			_ = w.conn.Close()
			return
		}
		// An occasional oversized frame must not pin its buffer for the
		// connection's lifetime.
		if cap(buf) > MaxWriteBatch {
			buf = make([]byte, 0, 4096)
		}
	}
}

// flush encodes f and the frames queued behind it into buf, until the
// queue is empty or buf holds MaxWriteBatch bytes, and writes them with
// one call — on an encode error, the frames that did encode.
func (w *FrameWriter) flush(buf []byte, f Frame, pushes *pushMerge) ([]byte, error) {
	frames := FrameCount(f)
	buf, err := pushes.append(buf[:0], f)
	Release(f)
coalesce:
	for err == nil && len(buf) < MaxWriteBatch {
		select {
		case f = <-w.out:
			frames += FrameCount(f)
			buf, err = pushes.append(buf, f)
			Release(f)
		default:
			break coalesce
		}
	}
	if err == nil {
		buf, err = pushes.flush(buf)
	}
	_, werr := w.conn.Write(buf)
	if err = cmp.Or(err, werr); err == nil {
		w.eg.flushes.Add(1)
		w.eg.frames.Add(uint64(frames))
	}
	return buf, err
}
