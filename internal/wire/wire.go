// Package wire defines the broker's binary protocol: typed frames, an
// exact binary codec for JMS messages, and length-prefixed stream framing
// for real TCP transports.
//
// The same frame structs travel two ways: over the discrete-event
// simulator they are carried by reference (with Size providing the exact
// number of bytes the codec would produce, so the network model charges
// authentic wire time), and over real TCP they are marshalled with this
// codec. Everything is big-endian.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gridmon/internal/message"
)

// FrameType tags each protocol frame.
type FrameType uint8

// Protocol frame types.
const (
	FTConnect FrameType = iota + 1
	FTConnected
	FTSubscribe
	FTSubOK
	FTUnsubscribe
	FTPublish
	FTPubAck
	FTMessage
	FTAck
	FTClose
	FTPing
	FTPong
	FTBrokerHello
	FTBrokerForward
	FTBrokerSub
	FTBrokerLink
	FTRGMAHello
	FTRGMAWelcome
	FTRGMACreateTable
	FTRGMAProducerCreate
	FTRGMAInsert
	FTRGMAConsumerCreate
	FTRGMAPop
	FTRGMAClose
	FTRGMAOK
	FTRGMAErr
	FTRGMATuples
)

var frameNames = map[FrameType]string{
	FTConnect: "CONNECT", FTConnected: "CONNECTED", FTSubscribe: "SUBSCRIBE",
	FTSubOK: "SUB_OK", FTUnsubscribe: "UNSUBSCRIBE", FTPublish: "PUBLISH",
	FTPubAck: "PUB_ACK", FTMessage: "MESSAGE", FTAck: "ACK", FTClose: "CLOSE",
	FTPing: "PING", FTPong: "PONG", FTBrokerHello: "BROKER_HELLO",
	FTBrokerForward: "BROKER_FORWARD", FTBrokerSub: "BROKER_SUB",
	FTBrokerLink: "BROKER_LINK",
	FTRGMAHello:  "RGMA_HELLO", FTRGMAWelcome: "RGMA_WELCOME",
	FTRGMACreateTable: "RGMA_CREATE_TABLE", FTRGMAProducerCreate: "RGMA_PRODUCER_CREATE",
	FTRGMAInsert: "RGMA_INSERT", FTRGMAConsumerCreate: "RGMA_CONSUMER_CREATE",
	FTRGMAPop: "RGMA_POP", FTRGMAClose: "RGMA_CLOSE", FTRGMAOK: "RGMA_OK",
	FTRGMAErr: "RGMA_ERR", FTRGMATuples: "RGMA_TUPLES",
}

func (t FrameType) String() string {
	if s, ok := frameNames[t]; ok {
		return s
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Frame is one protocol message.
type Frame interface {
	Type() FrameType
}

// Connect opens a client connection.
type Connect struct {
	ClientID string
}

// Connected acknowledges Connect.
type Connected struct {
	BrokerID string
}

// Subscribe registers a subscription on a destination with an optional
// JMS selector.
type Subscribe struct {
	SubID       int64
	Dest        message.Destination
	Selector    string
	Durable     bool
	DurableName string
	AckMode     message.AckMode
}

// SubOK acknowledges Subscribe.
type SubOK struct {
	SubID int64
}

// Unsubscribe removes a subscription.
type Unsubscribe struct {
	SubID int64
}

// Publish carries a produced message. Seq lets the broker acknowledge the
// publish on transports that require it.
type Publish struct {
	Seq int64
	Msg *message.Message
}

// PubAck acknowledges a Publish by sequence number.
type PubAck struct {
	Seq int64
}

// Deliver pushes a message to a subscription; Tag identifies the delivery
// for acknowledgement.
type Deliver struct {
	SubID int64
	Tag   int64
	Msg   *message.Message
}

// Ack acknowledges one or more deliveries on a subscription.
type Ack struct {
	SubID int64
	Tags  []int64
}

// Close terminates a connection gracefully.
type Close struct{}

// Ping is a liveness probe; Pong is its reply.
type Ping struct{ Token int64 }

// Pong replies to Ping.
type Pong struct{ Token int64 }

// BrokerHello identifies a peer broker on an inter-broker link.
type BrokerHello struct {
	BrokerID string
}

// BrokerForward carries a published message between brokers in a broker
// network. Origin is the broker that first accepted the publish; brokers
// never re-forward a forwarded message, which keeps the (fully-connected
// or tree) broker network loop-free.
type BrokerForward struct {
	Origin string
	Msg    *message.Message
}

// BrokerSub propagates topic interest between brokers so TREE-mode
// routing can forward selectively.
type BrokerSub struct {
	BrokerID string
	Topic    string
	Add      bool
}

// BrokerLink is the broker-to-broker link handshake on stream
// transports: the first frame a dialing broker sends on a fresh TCP
// connection, answered by the acceptor's own BrokerLink. It converts an
// ordinary client connection into a peer link. Routing carries the
// sender's routing mode so mismatched networks (one side flooding, the
// other pruning) are rejected at link time instead of silently
// misrouting.
type BrokerLink struct {
	BrokerID string
	Routing  uint8
}

// deliverPool recycles Deliver frames on the broker's fan-out hot path:
// a 1000-subscriber publish needs 1000 Deliver values, and boxing each
// one into the Frame interface would otherwise allocate per delivery.
// The broker takes frames with GetDeliver; the transport that consumes a
// frame (e.g. the TCP writer, after encoding it) returns it with
// PutDeliver.
//
// Ownership rule: a pooled frame must have exactly one consumer, and
// only that consumer may release it, exactly once, when no other holder
// can still reference it. A transport that cannot guarantee this —
// anything that retransmits, fans a frame out to several holders, or
// parks frames in queues with independent lifetimes — must copy the
// frame into a value and release the pooled one at once, as the
// simulator's host does for its by-reference transports; releasing a
// frame someone still references is never safe.
var (
	deliverPool              = sync.Pool{New: func() any { return new(Deliver) }}
	deliverGets, deliverPuts atomic.Uint64
)

// GetDeliver returns a zeroed Deliver frame from the pool. Both Deliver
// and *Deliver implement Frame; pooled frames travel as *Deliver.
func GetDeliver() *Deliver {
	deliverGets.Add(1)
	return deliverPool.Get().(*Deliver)
}

// PutDeliver returns a Deliver frame to the pool. Only the frame's final
// consumer may call it, exactly once.
func PutDeliver(d *Deliver) {
	*d = Deliver{}
	deliverPuts.Add(1)
	deliverPool.Put(d)
}

// DeliverPoolCounters is DeliverBatchPoolCounters for the Deliver pool.
func DeliverPoolCounters() (gets, puts uint64) {
	return deliverGets.Load(), deliverPuts.Load()
}

// Type implementations.
func (Connect) Type() FrameType       { return FTConnect }
func (Connected) Type() FrameType     { return FTConnected }
func (Subscribe) Type() FrameType     { return FTSubscribe }
func (SubOK) Type() FrameType         { return FTSubOK }
func (Unsubscribe) Type() FrameType   { return FTUnsubscribe }
func (Publish) Type() FrameType       { return FTPublish }
func (PubAck) Type() FrameType        { return FTPubAck }
func (Deliver) Type() FrameType       { return FTMessage }
func (Ack) Type() FrameType           { return FTAck }
func (Close) Type() FrameType         { return FTClose }
func (Ping) Type() FrameType          { return FTPing }
func (Pong) Type() FrameType          { return FTPong }
func (BrokerHello) Type() FrameType   { return FTBrokerHello }
func (BrokerForward) Type() FrameType { return FTBrokerForward }
func (BrokerSub) Type() FrameType     { return FTBrokerSub }
func (BrokerLink) Type() FrameType    { return FTBrokerLink }

// Errors returned by the codec.
var (
	ErrShortBuffer  = errors.New("wire: short buffer")
	ErrUnknownFrame = errors.New("wire: unknown frame type")
	ErrBadMessage   = errors.New("wire: malformed message")
	ErrFrameTooBig  = errors.New("wire: frame exceeds maximum size")
)

// MaxFrameSize bounds a single frame on stream transports (16 MB), a
// protective limit far above any monitoring payload.
const MaxFrameSize = 16 << 20

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) bool(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// reader decodes from buf. By default str copies out of buf; with view
// set it returns a view of buf instead, for a buf that the decoded value
// then owns (a message's private copy of its bytes).
// nonCanonical records a bool byte other than 0 or 1, which decodes as
// true but does not re-encode to itself.
type reader struct {
	buf          []byte
	off          int
	err          error
	view         bool
	nonCanonical bool
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrShortBuffer
	}
}
func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}
func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// span consumes a u32 length and that many bytes, returning them as a
// capped sub-slice of buf.
func (r *reader) span() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}
func (r *reader) str() string {
	b := r.span()
	if !r.view {
		return string(b)
	}
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
func (r *reader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.nonCanonical = true
	}
	return v != 0
}

// count reads a u32 element count whose elements take at least size
// bytes each, failing when the rest of buf cannot hold that many: a count
// never sizes an allocation beyond the input.
func (r *reader) count(size int) int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > (len(r.buf)-r.off)/size) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return n
}

// writeValue writes a value's stored bits: a float goes out as the
// float32 it holds, never through a float64 conversion that would quiet
// a signalling NaN.
func writeValue(w *writer, v message.Value) {
	kind, num, str := v.Raw()
	w.u8(uint8(kind))
	switch kind {
	case message.KindNull:
	case message.KindBool:
		w.bool(num != 0)
	case message.KindByte:
		w.u8(uint8(num))
	case message.KindShort:
		w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(num))
	case message.KindInt, message.KindFloat:
		w.u32(uint32(num))
	case message.KindLong, message.KindDouble:
		w.u64(num)
	case message.KindString:
		w.str(str)
	case message.KindBytes:
		b, _ := v.AsBytes()
		w.bytes(b)
	}
}

func readValue(r *reader) message.Value {
	kind := message.Kind(r.u8())
	switch kind {
	case message.KindNull:
		return message.Null()
	case message.KindBool:
		return message.Bool(r.bool())
	case message.KindByte:
		return message.Byte(int8(r.u8()))
	case message.KindShort:
		if r.err != nil || r.off+2 > len(r.buf) {
			r.fail()
			return message.Null()
		}
		v := int16(binary.BigEndian.Uint16(r.buf[r.off:]))
		r.off += 2
		return message.Short(v)
	case message.KindInt:
		return message.Int(int32(r.u32()))
	case message.KindLong:
		return message.Long(int64(r.u64()))
	case message.KindFloat:
		return message.Float(math.Float32frombits(r.u32()))
	case message.KindDouble:
		return message.Double(math.Float64frombits(r.u64()))
	case message.KindString:
		return message.String(r.str())
	case message.KindBytes:
		return message.Bytes(r.span())
	}
	if r.err == nil {
		r.err = fmt.Errorf("%w: bad value kind %d", ErrBadMessage, kind)
	}
	return message.Null()
}

func writeDest(w *writer, d message.Destination) {
	w.u8(uint8(d.Kind))
	w.str(d.Name)
}

func readDest(r *reader) message.Destination {
	k := message.DestKind(r.u8())
	return message.Destination{Kind: k, Name: r.str()}
}

// writeMessage appends the codec form of m to the writer. Frozen
// messages splice in their cached encoding, so fanning one publish out
// to N subscribers costs N memcpys: a decoded message adopted the bytes
// it arrived in as that encoding, and any other frozen message encodes
// once, on first use. The spliced bytes are exactly what
// writeMessageFields would produce. Unfrozen messages (client-side
// publishes, unit tests) are encoded field by field.
func writeMessage(w *writer, m *message.Message) {
	if m.Frozen() {
		w.buf = append(w.buf, m.CachedEncoding(encodeMessage)...)
		return
	}
	writeMessageFields(w, m)
}

// encodeMessage produces the standalone codec form of m in an exactly
// sized buffer; it backs the frozen-message encoding cache.
func encodeMessage(m *message.Message) []byte {
	w := &writer{buf: make([]byte, 0, m.EncodedSize())}
	writeMessageFields(w, m)
	return w.buf
}

func writeMessageFields(w *writer, m *message.Message) {
	w.u8(uint8(m.BodyKind()))
	w.str(m.ID)
	writeDest(w, m.Dest)
	w.u64(uint64(m.Timestamp))
	w.u64(uint64(m.Expiration))
	w.u8(uint8(m.Priority))
	w.str(m.CorrelationID)
	writeDest(w, m.ReplyTo)
	w.str(m.Type)
	w.bool(m.Redelivered)
	w.u8(uint8(m.Mode))
	writeEntries(w, m.Properties())
	switch m.BodyKind() {
	case message.TextBody:
		w.str(m.Text())
	case message.BytesBody, message.ObjectBody:
		w.bytes(m.BytesPayload())
	case message.MapBody:
		writeEntries(w, m.MapEntries())
	case message.StreamBody:
		vs := m.Stream()
		w.u32(uint32(len(vs)))
		for _, v := range vs {
			writeValue(w, v)
		}
	}
}

func writeEntries(w *writer, es []message.Entry) {
	w.u32(uint32(len(es)))
	for _, e := range es {
		w.str(e.Name)
		writeValue(w, e.Val)
	}
}

// minEntry and minValue are the fewest bytes a property or map entry
// (name length, value kind) and a stream value (kind) take on the wire.
const (
	minEntry = 4 + 1
	minValue = 1
)

// readMessage decodes the message that makes up the rest of r's buffer.
// It copies those bytes once; every string of the message is a view of
// the copy, and byte payloads are capped sub-slices of it. The message
// comes back frozen. When the bytes re-encode to themselves — every bool
// byte is 0 or 1 and no name repeats in the property table or the map
// body — the copy becomes the message's cached encoding, so the broker
// sends out the bytes it received. Otherwise the message re-encodes on
// first use, as a locally built one does.
func readMessage(r *reader) *message.Message {
	if r.err != nil {
		return nil
	}
	mr := &reader{buf: append([]byte(nil), r.buf[r.off:]...), view: true}
	m, canonical := decodeMessage(mr)
	r.off += mr.off
	if mr.err != nil {
		r.err = mr.err
		return nil
	}
	if !canonical {
		return m.Freeze()
	}
	return m.FreezeEncoded(mr.buf[:mr.off:mr.off])
}

// decodeMessage reads one message's fields, unfrozen, and reports
// whether its bytes are canonical (they re-encode to themselves).
func decodeMessage(r *reader) (*message.Message, bool) {
	bodyKind := message.BodyKind(r.u8())
	var m *message.Message
	switch bodyKind {
	case message.MapBody:
		m = message.NewMap()
	case message.EmptyBody, message.TextBody, message.BytesBody, message.StreamBody, message.ObjectBody:
		m = message.New()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: bad body kind %d", ErrBadMessage, bodyKind)
		}
		return nil, false
	}
	m.ID = r.str()
	m.Dest = readDest(r)
	m.Timestamp = int64(r.u64())
	m.Expiration = int64(r.u64())
	m.Priority = int(r.u8())
	m.CorrelationID = r.str()
	m.ReplyTo = readDest(r)
	m.Type = r.str()
	m.Redelivered = r.bool()
	m.Mode = message.DeliveryMode(r.u8())
	// The property table and the map body share one entries array; a
	// first pass over the properties reaches the map's entry count.
	np := r.count(minEntry)
	propsAt := r.off
	for i := 0; i < np && r.err == nil; i++ {
		r.span()
		readValue(r)
	}
	nb := 0
	if bodyKind == message.MapBody {
		nb = r.count(minEntry)
	}
	bodyAt := r.off
	if r.err != nil {
		return m, false
	}
	ents := make([]message.Entry, np+nb)
	r.off = propsAt
	readEntries(r, ents[:np])
	r.off = bodyAt
	switch bodyKind {
	case message.TextBody:
		m.SetText(r.str())
	case message.BytesBody:
		m.SetBytes(r.span())
	case message.ObjectBody:
		m.SetObject(r.span())
	case message.MapBody:
		readEntries(r, ents[np:])
	case message.StreamBody:
		n := r.count(minValue)
		for i := 0; i < n && r.err == nil; i++ {
			m.StreamAppend(readValue(r))
		}
	}
	if r.err != nil {
		return m, false
	}
	repeated := m.SetEntries(ents[:np], ents[np:])
	return m, !repeated && !r.nonCanonical
}

func readEntries(r *reader, es []message.Entry) {
	for i := range es {
		es[i].Name = r.str()
		es[i].Val = readValue(r)
	}
}

// MarshalMessage appends the standalone codec form of m to dst — the
// same bytes Publish and Deliver frames embed. It backs the broker's
// write-ahead-log records, which persist stored messages outside any
// frame.
func MarshalMessage(dst []byte, m *message.Message) []byte {
	w := &writer{buf: dst}
	writeMessage(w, m)
	return w.buf
}

// UnmarshalMessage decodes one standalone message produced by
// MarshalMessage; the buffer must contain exactly one message.
func UnmarshalMessage(buf []byte) (*message.Message, error) {
	r := &reader{buf: buf}
	m := readMessage(r)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(buf)-r.off)
	}
	return m, nil
}

// Marshal encodes a frame to bytes.
func Marshal(f Frame) []byte {
	return MarshalAppend(make([]byte, 0, 64), f)
}

// MarshalAppend encodes a frame onto the end of dst and returns the
// extended slice, letting transports reuse one encode buffer across
// messages instead of allocating per frame.
func MarshalAppend(dst []byte, f Frame) []byte {
	w := &writer{buf: dst}
	w.u8(uint8(f.Type()))
	switch v := f.(type) {
	case Connect:
		w.str(v.ClientID)
	case Connected:
		w.str(v.BrokerID)
	case Subscribe:
		w.u64(uint64(v.SubID))
		writeDest(w, v.Dest)
		w.str(v.Selector)
		w.bool(v.Durable)
		w.str(v.DurableName)
		w.u8(uint8(v.AckMode))
	case SubOK:
		w.u64(uint64(v.SubID))
	case Unsubscribe:
		w.u64(uint64(v.SubID))
	case Publish:
		w.u64(uint64(v.Seq))
		writeMessage(w, v.Msg)
	case PubAck:
		w.u64(uint64(v.Seq))
	case Deliver:
		writeDeliver(w, v)
	case *Deliver:
		// Pooled fan-out frames travel as pointers; same bytes as Deliver.
		writeDeliver(w, *v)
	case Ack:
		w.u64(uint64(v.SubID))
		w.u32(uint32(len(v.Tags)))
		for _, tag := range v.Tags {
			w.u64(uint64(tag))
		}
	case Close:
	case Ping:
		w.u64(uint64(v.Token))
	case Pong:
		w.u64(uint64(v.Token))
	case BrokerHello:
		w.str(v.BrokerID)
	case BrokerForward:
		w.str(v.Origin)
		writeMessage(w, v.Msg)
	case BrokerSub:
		w.str(v.BrokerID)
		w.str(v.Topic)
		w.bool(v.Add)
	case BrokerLink:
		w.str(v.BrokerID)
		w.u8(v.Routing)
	case RGMAHello:
		w.str(v.ClientID)
	case RGMAWelcome:
		w.str(v.ServerID)
	case RGMACreateTable:
		w.u64(uint64(v.Seq))
		w.str(v.SQL)
	case RGMAProducerCreate:
		w.u64(uint64(v.Seq))
		w.str(v.Table)
		w.u32(v.LatestRetentionSec)
		w.u32(v.HistoryRetentionSec)
	case RGMAInsert:
		w.u64(uint64(v.Seq))
		w.u64(uint64(v.Producer))
		w.u32(uint32(len(v.SQLs)))
		for _, q := range v.SQLs {
			w.str(q)
		}
	case RGMAConsumerCreate:
		w.u64(uint64(v.Seq))
		w.str(v.Query)
		w.u8(v.QType)
	case RGMAPop:
		w.u64(uint64(v.Seq))
		w.u64(uint64(v.Consumer))
	case RGMAClose:
		w.u64(uint64(v.Seq))
		w.bool(v.Producer)
		w.u64(uint64(v.ID))
	case RGMAOK:
		w.u64(uint64(v.Seq))
		w.u64(uint64(v.ID))
	case RGMAErr:
		w.u64(uint64(v.Seq))
		w.u8(v.Code)
		w.str(v.Msg)
	case RGMATuples:
		writeRGMATuples(w, v)
	default:
		panic(fmt.Sprintf("wire: marshal of unknown frame %T", f))
	}
	return w.buf
}

// writeDeliver encodes a Deliver frame body; Deliver and *Deliver share
// it so the two marshal cases cannot drift.
func writeDeliver(w *writer, v Deliver) {
	w.u64(uint64(v.SubID))
	w.u64(uint64(v.Tag))
	writeMessage(w, v.Msg)
}

// Unmarshal decodes a frame from bytes.
func Unmarshal(buf []byte) (Frame, error) {
	r := &reader{buf: buf}
	t := FrameType(r.u8())
	var f Frame
	switch t {
	case FTConnect:
		f = Connect{ClientID: r.str()}
	case FTConnected:
		f = Connected{BrokerID: r.str()}
	case FTSubscribe:
		f = Subscribe{
			SubID:       int64(r.u64()),
			Dest:        readDest(r),
			Selector:    r.str(),
			Durable:     r.bool(),
			DurableName: r.str(),
			AckMode:     message.AckMode(r.u8()),
		}
	case FTSubOK:
		f = SubOK{SubID: int64(r.u64())}
	case FTUnsubscribe:
		f = Unsubscribe{SubID: int64(r.u64())}
	case FTPublish:
		f = Publish{Seq: int64(r.u64()), Msg: readMessage(r)}
	case FTPubAck:
		f = PubAck{Seq: int64(r.u64())}
	case FTMessage:
		f = Deliver{SubID: int64(r.u64()), Tag: int64(r.u64()), Msg: readMessage(r)}
	case FTAck:
		a := Ack{SubID: int64(r.u64())}
		n := int(r.u32())
		for i := 0; i < n && r.err == nil; i++ {
			a.Tags = append(a.Tags, int64(r.u64()))
		}
		f = a
	case FTClose:
		f = Close{}
	case FTPing:
		f = Ping{Token: int64(r.u64())}
	case FTPong:
		f = Pong{Token: int64(r.u64())}
	case FTBrokerHello:
		f = BrokerHello{BrokerID: r.str()}
	case FTBrokerForward:
		f = BrokerForward{Origin: r.str(), Msg: readMessage(r)}
	case FTBrokerSub:
		f = BrokerSub{BrokerID: r.str(), Topic: r.str(), Add: r.bool()}
	case FTBrokerLink:
		f = BrokerLink{BrokerID: r.str(), Routing: r.u8()}
	case FTRGMAHello:
		f = RGMAHello{ClientID: r.str()}
	case FTRGMAWelcome:
		f = RGMAWelcome{ServerID: r.str()}
	case FTRGMACreateTable:
		f = RGMACreateTable{Seq: int64(r.u64()), SQL: r.str()}
	case FTRGMAProducerCreate:
		f = RGMAProducerCreate{
			Seq:                 int64(r.u64()),
			Table:               r.str(),
			LatestRetentionSec:  r.u32(),
			HistoryRetentionSec: r.u32(),
		}
	case FTRGMAInsert:
		v := RGMAInsert{Seq: int64(r.u64()), Producer: int64(r.u64())}
		n := int(r.u32())
		for i := 0; i < n && r.err == nil; i++ {
			v.SQLs = append(v.SQLs, r.str())
		}
		f = v
	case FTRGMAConsumerCreate:
		f = RGMAConsumerCreate{Seq: int64(r.u64()), Query: r.str(), QType: r.u8()}
	case FTRGMAPop:
		f = RGMAPop{Seq: int64(r.u64()), Consumer: int64(r.u64())}
	case FTRGMAClose:
		f = RGMAClose{Seq: int64(r.u64()), Producer: r.bool(), ID: int64(r.u64())}
	case FTRGMAOK:
		f = RGMAOK{Seq: int64(r.u64()), ID: int64(r.u64())}
	case FTRGMAErr:
		f = RGMAErr{Seq: int64(r.u64()), Code: r.u8(), Msg: r.str()}
	case FTRGMATuples:
		f = readRGMATuples(r)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownFrame, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(buf)-r.off)
	}
	return f, nil
}

// Size reports the exact number of bytes Marshal produces for f, without
// allocating. The simulator uses this to charge wire time for frames that
// are carried by reference, so it knows only the value frames the
// simulator sends — the JMS and broker-link frames; any other frame
// panics.
func Size(f Frame) int {
	n := 1 // frame type
	switch v := f.(type) {
	case Connect:
		n += 4 + len(v.ClientID)
	case Connected:
		n += 4 + len(v.BrokerID)
	case Subscribe:
		n += 8 + 1 + 4 + len(v.Dest.Name) + 4 + len(v.Selector) + 1 + 4 + len(v.DurableName) + 1
	case SubOK, Unsubscribe, PubAck:
		n += 8
	case Publish:
		n += 8 + v.Msg.EncodedSize()
	case Deliver:
		n += 16 + v.Msg.EncodedSize()
	case Ack:
		n += 8 + 4 + 8*len(v.Tags)
	case Close:
	case Ping, Pong:
		n += 8
	case BrokerHello:
		n += 4 + len(v.BrokerID)
	case BrokerForward:
		n += 4 + len(v.Origin) + v.Msg.EncodedSize()
	case BrokerSub:
		n += 4 + len(v.BrokerID) + 4 + len(v.Topic) + 1
	case BrokerLink:
		n += 4 + len(v.BrokerID) + 1
	default:
		panic(fmt.Sprintf("wire: size of unknown frame %T", f))
	}
	return n
}

// AppendFrame appends the length-prefixed stream form of f to dst — the
// 4-byte header is reserved up front and patched after encoding, so one
// buffer (and one Write) carries any number of frames. A *DeliverBatch
// expands to one MESSAGE frame per entry (its stream form — see
// batch.go); every other frame appends exactly once. On error dst is
// returned truncated to its original length.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if b, ok := f.(*DeliverBatch); ok {
		return AppendDeliverBatch(dst, b)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = MarshalAppend(dst, f)
	n := len(dst) - start - 4
	if n > MaxFrameSize {
		return dst[:start], ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// WriteFrame writes a length-prefixed frame to a stream with a single
// Write call (header and body share one buffer). Callers writing many
// frames should use WriteFrameBuf or FrameWriter.
func WriteFrame(w io.Writer, f Frame) error {
	var buf []byte
	return WriteFrameBuf(w, &buf, f)
}

// WriteFrameBuf is WriteFrame encoding into *buf, which it keeps for the
// next call unless the frame grew it past 64 KiB — the synchronous send
// of both clients. Callers serialize calls that share buf.
func WriteFrameBuf(w io.Writer, buf *[]byte, f Frame) error {
	b, err := AppendFrame((*buf)[:0], f)
	if err != nil {
		return err
	}
	*buf = b
	if cap(b) > maxRetainedBuf {
		*buf = nil
	}
	_, err = w.Write(b)
	return err
}

// maxRetainedBuf caps the buffer a FrameReader or WriteFrameBuf keeps
// between frames; an occasional oversized frame must not pin its buffer
// for the connection's lifetime.
const maxRetainedBuf = 64 << 10

// readAhead is a FrameReader's buffer size: one read of the stream takes
// up to this many bytes, however many frames they hold.
const readAhead = 16 << 10

// FrameReader reads length-prefixed frames from a stream through one
// read-ahead buffer: a single read takes whatever the stream has ready,
// so a burst of frames costs one read, not two per frame. Frames are
// decoded straight out of the buffer, which is safe because Unmarshal
// keeps nothing that points into its input: a message copies its bytes
// once, and every other variable-length field is copied out. A frame
// larger than the buffer grows it once its length has passed the
// MaxFrameSize check; a buffer grown past 64 KiB is dropped once drained. Read returns io.EOF only at a frame boundary and
// io.ErrUnexpectedEOF when the stream ends mid-frame.
//
// Once a FrameReader has read from a stream, it owns the stream: bytes
// of later frames may already sit in its buffer. Not safe for concurrent
// use; each connection's read loop owns one, handshake included.
type FrameReader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read but not yet decoded
}

// NewFrameReader wraps r for buffered frame reading.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, readAhead)}
}

// Handshake opens the dialing side of a connection: it writes hello,
// reads the peer's first frame under a read deadline of timeout, clears
// the deadline and returns that reply together with the reader the
// connection's read loop must go on with, since frames the peer sent
// after the reply may already be in its buffer. A peer that closes the
// connection instead of replying fails the handshake at once.
func Handshake(conn net.Conn, hello Frame, timeout time.Duration) (Frame, *FrameReader, error) {
	if err := WriteFrame(conn, hello); err != nil {
		return nil, nil, err
	}
	fr := NewFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	f, err := fr.Read()
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, nil, err
	}
	return f, fr, nil
}

// FrameBuffered reports whether the next Read returns without reading
// the stream: a whole frame (or a length Read will reject) is buffered.
// A read loop that batches replies flushes them when this turns false,
// before it would block.
func (fr *FrameReader) FrameBuffered() bool {
	avail := fr.end - fr.off
	if avail < 4 {
		return false
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.off:])
	return n > MaxFrameSize || uint32(avail-4) >= n
}

// Read decodes the next frame from the stream.
func (fr *FrameReader) Read() (Frame, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.off:]))
	if n > MaxFrameSize {
		return nil, ErrFrameTooBig
	}
	if err := fr.fill(4 + n); err != nil {
		return nil, err
	}
	body := fr.buf[fr.off+4 : fr.off+4+n]
	fr.off += 4 + n
	f, err := Unmarshal(body)
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
		if len(fr.buf) > maxRetainedBuf {
			fr.buf = make([]byte, readAhead)
		}
	}
	return f, err
}

// fill reads until need bytes past off are buffered. A partial frame
// that would not fit is first slid to the front; a frame larger than the
// buffer grows it by doubling as its bytes arrive, so a length the
// stream never backs up costs little. A stream error is returned only
// when the bytes before it fall short; io.EOF after part of a frame
// becomes io.ErrUnexpectedEOF.
func (fr *FrameReader) fill(need int) error {
	if fr.end-fr.off >= need {
		return nil
	}
	if need > len(fr.buf)-fr.off {
		fr.end = copy(fr.buf, fr.buf[fr.off:fr.end])
		fr.off = 0
	}
	for fr.end-fr.off < need {
		if fr.end == len(fr.buf) {
			buf := make([]byte, min(need, 2*len(fr.buf)))
			copy(buf, fr.buf[:fr.end])
			fr.buf = buf
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil && fr.end-fr.off < need {
			if err == io.EOF && fr.end > fr.off {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
