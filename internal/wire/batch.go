// Egress batching: DeliverBatch carries one frozen message's deliveries
// to many subscriptions of a single connection as one transport-internal
// envelope. On the stream it is encoded as len(Entries) ordinary
// length-prefixed MESSAGE frames, so the client-visible byte stream is
// exactly what per-frame emission produces — DeliverBatch never appears
// as a decoded frame type and clients need no changes. What batching
// buys is server-side: one channel handoff and one buffered flush per
// connection per fan-out instead of one per subscriber.

package wire

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"gridmon/internal/message"
)

// DeliverEntry is one delivery within a DeliverBatch: the subscription
// and its acknowledgement tag. The message is shared by the batch.
type DeliverEntry struct {
	SubID int64
	Tag   int64
}

// DeliverBatch is a run of deliveries of one frozen message to many
// subscriptions on one connection. Msg must be frozen (the broker
// freezes every message it accepts) so the cached encoding can be
// spliced per entry.
//
// DeliverBatch is transport-internal: Marshal/Unmarshal never see it.
// Stream writers hand it to AppendFrame (or AppendDeliverBatch
// directly), which emits the per-entry MESSAGE frames.
type DeliverBatch struct {
	Msg     *message.Message
	Entries []DeliverEntry

	// released guards against double-release under the pool's
	// exactly-once ownership rule; see PutDeliverBatch.
	released bool
}

// Type returns FTMessage: on the wire a batch IS a run of MESSAGE
// frames.
func (*DeliverBatch) Type() FrameType { return FTMessage }

// deliverBatchPool recycles DeliverBatch envelopes on the fan-out hot
// path, under the same ownership rule as deliverPool: exactly one
// consumer, releasing exactly once. The gets/puts counters exist so
// tests can pin that rule on partial-failure paths (a connection
// dropping mid-run) — at quiesce, every Get must have found its Put.
var (
	deliverBatchPool = sync.Pool{New: func() any { return new(DeliverBatch) }}
	batchGets        atomic.Uint64
	batchPuts        atomic.Uint64
)

// GetDeliverBatch returns an empty DeliverBatch from the pool.
func GetDeliverBatch() *DeliverBatch {
	b := deliverBatchPool.Get().(*DeliverBatch)
	b.released = false
	batchGets.Add(1)
	return b
}

// PutDeliverBatch returns a batch to the pool. Only the batch's final
// consumer may call it, exactly once; a second release panics, because
// a double-put would hand the same envelope to two owners.
func PutDeliverBatch(b *DeliverBatch) {
	if b.released {
		panic("wire: DeliverBatch released twice")
	}
	b.released = true
	b.Msg = nil
	b.Entries = b.Entries[:0]
	batchPuts.Add(1)
	deliverBatchPool.Put(b)
}

// DeliverBatchPoolCounters reports lifetime Get/Put counts of the batch
// pool (process-wide). A quiesced system with balanced counters has
// released every batch exactly once.
func DeliverBatchPoolCounters() (gets, puts uint64) {
	return batchGets.Load(), batchPuts.Load()
}

// batchEncoding returns the shared message bytes every entry splices.
func (b *DeliverBatch) batchEncoding() []byte {
	if b.Msg.Frozen() {
		return b.Msg.CachedEncoding(encodeMessage)
	}
	// Unfrozen batches only arise in tests; encode once and splice.
	return encodeMessage(b.Msg)
}

// AppendDeliverBatch appends the batch's stream form — one ordinary
// length-prefixed MESSAGE frame per entry, all splicing the same cached
// message encoding — to dst. On error dst is returned truncated to its
// original length.
func AppendDeliverBatch(dst []byte, b *DeliverBatch) ([]byte, error) {
	start := len(dst)
	enc := b.batchEncoding()
	n := 1 + 8 + 8 + len(enc)
	if n > MaxFrameSize {
		return dst[:start], ErrFrameTooBig
	}
	dst = slices.Grow(dst, len(b.Entries)*(4+n))
	for _, e := range b.Entries {
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		dst = append(dst, byte(FTMessage))
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.SubID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Tag))
		dst = append(dst, enc...)
	}
	return dst, nil
}

// FrameCount reports how many client-visible frames f expands to on the
// stream: len(Entries) for a DeliverBatch, 1 for everything else.
// Egress meters use it so frames-per-flush counts what the client
// actually receives.
func FrameCount(f Frame) int {
	if b, ok := f.(*DeliverBatch); ok {
		return len(b.Entries)
	}
	return 1
}
