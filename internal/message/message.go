package message

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// DestKind distinguishes the two JMS destination flavours.
type DestKind uint8

// JMS destination kinds.
const (
	TopicKind DestKind = iota + 1
	QueueKind
)

func (d DestKind) String() string {
	switch d {
	case TopicKind:
		return "topic"
	case QueueKind:
		return "queue"
	}
	return "dest(?)"
}

// Destination names a topic or queue.
type Destination struct {
	Kind DestKind
	Name string
}

// Topic returns a topic destination.
func Topic(name string) Destination { return Destination{Kind: TopicKind, Name: name} }

// Queue returns a queue destination.
func Queue(name string) Destination { return Destination{Kind: QueueKind, Name: name} }

// IsZero reports whether the destination is unset.
func (d Destination) IsZero() bool { return d.Kind == 0 && d.Name == "" }

func (d Destination) String() string { return fmt.Sprintf("%s:%s", d.Kind, d.Name) }

// DeliveryMode is the JMS persistence flag.
type DeliveryMode uint8

// JMS delivery modes.
const (
	NonPersistent DeliveryMode = 1
	Persistent    DeliveryMode = 2
)

func (m DeliveryMode) String() string {
	switch m {
	case NonPersistent:
		return "NON_PERSISTENT"
	case Persistent:
		return "PERSISTENT"
	}
	return "deliverymode(?)"
}

// AckMode is the JMS session acknowledgement mode. The paper's tests use
// AUTO_ACKNOWLEDGE everywhere except its "UDP CLI" test, which uses
// CLIENT_ACKNOWLEDGE.
type AckMode uint8

// JMS acknowledgement modes.
const (
	AutoAck AckMode = iota + 1
	ClientAck
	DupsOKAck
)

func (m AckMode) String() string {
	switch m {
	case AutoAck:
		return "AUTO_ACKNOWLEDGE"
	case ClientAck:
		return "CLIENT_ACKNOWLEDGE"
	case DupsOKAck:
		return "DUPS_OK_ACKNOWLEDGE"
	}
	return "ackmode(?)"
}

// BodyKind enumerates the five JMS message body types.
type BodyKind uint8

// JMS body kinds. EmptyBody corresponds to a javax.jms.Message with no
// payload.
const (
	EmptyBody BodyKind = iota
	TextBody
	MapBody
	BytesBody
	StreamBody
	ObjectBody
)

func (b BodyKind) String() string {
	switch b {
	case EmptyBody:
		return "Message"
	case TextBody:
		return "TextMessage"
	case MapBody:
		return "MapMessage"
	case BytesBody:
		return "BytesMessage"
	case StreamBody:
		return "StreamMessage"
	case ObjectBody:
		return "ObjectMessage"
	}
	return "body(?)"
}

// Message is a JMS message: headers, user properties, and a typed body.
//
// A message starts out mutable while the producer assembles it. Once the
// broker accepts it, Freeze seals it: mutator methods panic, EncodedSize
// is computed once and cached, and the broker fans the single frozen
// value out to every matching subscriber by reference instead of deep-
// copying per delivery. Clone produces an independent mutable copy for
// the rare paths that genuinely need one (e.g. expanding a payload
// before re-publishing).
//
// A message decoded off the wire arrives frozen, so a received message
// is read-only, as JMS makes it. Its strings and byte payloads are views
// of the one buffer it was decoded from, and that buffer doubles as its
// cached encoding: holding any field view (a string value, the bytes
// body) keeps the whole buffer alive.
type Message struct {
	// Standard JMS headers.
	ID            string // JMSMessageID
	Dest          Destination
	Timestamp     int64 // JMSTimestamp, nanoseconds on the producing clock
	Expiration    int64 // JMSExpiration, 0 = never
	Priority      int   // 0..9, JMS default 4
	CorrelationID string
	ReplyTo       Destination
	Type          string // JMSType
	Redelivered   bool
	Mode          DeliveryMode

	props table // user properties, in insertion order

	bodyKind BodyKind
	text     string
	bytes    []byte
	stream   []Value
	body     table // MapMessage entries, in insertion order

	// Sealed state. encSize caches EncodedSize at freeze time; encOnce /
	// enc cache the wire codec's message encoding, filled at most once by
	// the first transport that marshals the frozen message (concurrent
	// connection writers may race to it, hence the Once). FreezeEncoded
	// sets enc before the message is shared and points encOnce at
	// doneOnce, so readers never write.
	frozen  bool
	encSize int
	encOnce *sync.Once
	enc     []byte
}

// Entry is one named value of a property table or a map body.
type Entry struct {
	Name string
	Val  Value
}

// indexAbove is the entry count above which a table keeps a name index;
// up to it, a linear scan of the entries is cheaper than hashing.
const indexAbove = 32

// table is an insertion-ordered set of named values. idx maps a name to
// its position and exists only once the table has grown past indexAbove
// entries, by set or by fromList; a frozen message never builds one.
type table struct {
	list []Entry
	idx  map[string]int32
}

func (t *table) find(name string) int {
	if t.idx != nil {
		if i, ok := t.idx[name]; ok {
			return int(i)
		}
		return -1
	}
	for i := range t.list {
		if t.list[i].Name == name {
			return i
		}
	}
	return -1
}

func (t *table) get(name string) (Value, bool) {
	if i := t.find(name); i >= 0 {
		return t.list[i].Val, true
	}
	return Value{}, false
}

// set overwrites name's value in place, or appends name. It reports
// whether name was new.
func (t *table) set(name string, v Value) bool {
	if i := t.find(name); i >= 0 {
		t.list[i].Val = v
		return false
	}
	t.list = append(t.list, Entry{Name: name, Val: v})
	switch {
	case t.idx != nil:
		t.idx[name] = int32(len(t.list) - 1)
	case len(t.list) > indexAbove:
		t.idx = make(map[string]int32, len(t.list))
		for i, e := range t.list {
			t.idx[e.Name] = int32(i)
		}
	}
	return true
}

// fromList builds a table on list, in place: a repeated name keeps its
// first position and takes its last value, as a sequence of set calls
// would leave it. It reports whether any name repeated. The table's
// capacity ends at len(list), so a later set never writes past it.
func fromList(list []Entry) (t table, repeated bool) {
	t.list = list[:0:len(list)]
	if len(list) > indexAbove {
		t.idx = make(map[string]int32, len(list))
	}
	// set writes at most at the index being read, so the walk is safe.
	for _, e := range list {
		if !t.set(e.Name, e.Val) {
			repeated = true
		}
	}
	return t, repeated
}

func (t table) clone() table {
	return table{list: slices.Clone(t.list), idx: maps.Clone(t.idx)}
}

// equal reports whether both tables hold the same names and values,
// ignoring order.
func (t *table) equal(o *table) bool {
	if len(t.list) != len(o.list) {
		return false
	}
	for _, e := range t.list {
		ov, ok := o.get(e.Name)
		if !ok || !e.Val.Equal(ov) {
			return false
		}
	}
	return true
}

func (t *table) encodedSize() int {
	n := 4 // entry count
	for _, e := range t.list {
		n += 4 + len(e.Name) + e.Val.EncodedSize()
	}
	return n
}

// New returns an empty Message with JMS defaults (priority 4,
// non-persistent).
func New() *Message {
	return &Message{Priority: 4, Mode: NonPersistent}
}

// NewText returns a TextMessage.
func NewText(text string) *Message {
	m := New()
	m.SetText(text)
	return m
}

// NewMap returns an empty MapMessage.
func NewMap() *Message {
	m := New()
	m.bodyKind = MapBody
	return m
}

// NewBytes returns a BytesMessage wrapping b (not copied).
func NewBytes(b []byte) *Message {
	m := New()
	m.bodyKind = BytesBody
	m.bytes = b
	return m
}

// BodyKind reports which JMS message type this is.
func (m *Message) BodyKind() BodyKind { return m.bodyKind }

// Freeze seals the message: every mutator method panics from here on,
// and the encoded size is computed once and cached. The broker freezes a
// message when it accepts a publish, then shares the one frozen value
// across all subscriber deliveries, durable backlogs and queue backlogs.
// Freezing a frozen message is a no-op; Freeze returns m for call-site
// convenience.
//
// Exported header fields (ID, Priority, Dest, ...) and the backing array
// of a payload passed to SetBytes cannot be guarded this way — not
// mutating those after Publish is part of the publisher contract and is
// not enforced at runtime. The same holds for a received message, which
// the codec hands over frozen: it is read-only, and its byte payloads
// are views of its cached encoding. To change and resend one, Clone it.
//
// Freeze itself is not safe for concurrent use — the single broker event
// loop freezes before any sharing — but once frozen the message is safe
// for unsynchronized concurrent reads.
func (m *Message) Freeze() *Message {
	if !m.frozen {
		m.encSize = m.EncodedSize()
		m.encOnce = new(sync.Once)
		m.frozen = true
	}
	return m
}

// doneOnce is the already-run Once of every message frozen with an
// adopted encoding: CachedEncoding's Do on it never calls encode.
var doneOnce = func() *sync.Once {
	o := new(sync.Once)
	o.Do(func() {})
	return o
}()

// FreezeEncoded is Freeze for a message decoded from enc, which becomes
// its cached encoding without a re-encode. enc must be exactly what the
// codec would produce for m; the codec calls this only for an input that
// re-encodes to itself. Like Freeze, it must run before m is shared.
// Freezing a frozen message is a no-op.
func (m *Message) FreezeEncoded(enc []byte) *Message {
	if !m.frozen {
		m.encSize = len(enc)
		m.enc = enc
		m.encOnce = doneOnce
		m.frozen = true
	}
	return m
}

// Frozen reports whether the message is sealed.
func (m *Message) Frozen() bool { return m.frozen }

// CachedEncoding returns the frozen message's cached wire encoding,
// invoking encode at most once over the message's lifetime (package wire
// supplies the codec; message does not depend on it). Concurrent callers
// are safe: all but the first block until the encoding is published. It
// returns nil for unfrozen messages, whose bytes are not stable enough
// to cache.
func (m *Message) CachedEncoding(encode func(*Message) []byte) []byte {
	if !m.frozen {
		return nil
	}
	m.encOnce.Do(func() { m.enc = encode(m) })
	return m.enc
}

// mustBeMutable panics when op is attempted on a frozen message.
func (m *Message) mustBeMutable(op string) {
	if m.frozen {
		panic("message: " + op + " on frozen message " + m.ID)
	}
}

// SetText makes the message a TextMessage with the given payload.
func (m *Message) SetText(s string) {
	m.mustBeMutable("SetText")
	m.bodyKind = TextBody
	m.text = s
}

// Text returns the TextMessage payload ("" for other kinds).
func (m *Message) Text() string { return m.text }

// BytesPayload returns the BytesMessage (or ObjectMessage) payload.
func (m *Message) BytesPayload() []byte { return m.bytes }

// SetBytes makes the message a BytesMessage with payload b (not copied).
func (m *Message) SetBytes(b []byte) {
	m.mustBeMutable("SetBytes")
	m.bodyKind = BytesBody
	m.bytes = b
}

// SetObject makes the message an ObjectMessage whose serialized form is b.
// The broker treats the payload as opaque, as JMS providers do.
func (m *Message) SetObject(b []byte) {
	m.mustBeMutable("SetObject")
	m.bodyKind = ObjectBody
	m.bytes = b
}

// StreamAppend appends a value to a StreamMessage body.
func (m *Message) StreamAppend(v Value) {
	m.mustBeMutable("StreamAppend")
	m.bodyKind = StreamBody
	m.stream = append(m.stream, v)
}

// Stream returns the StreamMessage values.
func (m *Message) Stream() []Value { return m.stream }

// SetProperty sets a user property. Setting a property that already exists
// overwrites it in place.
func (m *Message) SetProperty(name string, v Value) {
	m.mustBeMutable("SetProperty")
	m.props.set(name, v)
}

// Property returns a user property and whether it exists.
func (m *Message) Property(name string) (Value, bool) { return m.props.get(name) }

// Properties returns the user properties in insertion order. The slice
// belongs to the message: callers must not modify it.
func (m *Message) Properties() []Entry { return m.props.list }

// SetEntries replaces the property table with props and, for a
// MapMessage, the map body with body, taking both slices over (they may
// be adjacent parts of one array). Within each, a
// repeated name keeps its first position and takes its last value, as
// repeated SetProperty/MapSet calls would leave it. It reports whether
// any name repeated. This is the codec's bulk path; it panics on a
// frozen message, or when body is non-empty and m is not a MapMessage.
func (m *Message) SetEntries(props, body []Entry) (repeated bool) {
	m.mustBeMutable("SetEntries")
	if len(body) > 0 && m.bodyKind != MapBody {
		panic(fmt.Sprintf("message: map entries on %v", m.bodyKind))
	}
	var r1, r2 bool
	m.props, r1 = fromList(props)
	m.body, r2 = fromList(body)
	return r1 || r2
}

// HeaderField resolves the JMS header pseudo-properties that message
// selectors may reference (JMSPriority, JMSTimestamp, JMSMessageID,
// JMSCorrelationID, JMSType, JMSDeliveryMode). Unknown names report false.
func (m *Message) HeaderField(name string) (Value, bool) {
	switch name {
	case "JMSPriority":
		return Int(int32(m.Priority)), true
	case "JMSTimestamp":
		return Long(m.Timestamp), true
	case "JMSMessageID":
		return String(m.ID), true
	case "JMSCorrelationID":
		return String(m.CorrelationID), true
	case "JMSType":
		return String(m.Type), true
	case "JMSDeliveryMode":
		if m.Mode == Persistent {
			return String("PERSISTENT"), true
		}
		return String("NON_PERSISTENT"), true
	case "JMSRedelivered":
		return Bool(m.Redelivered), true
	}
	return Value{}, false
}

// SelectorField implements the lookup used by selector evaluation: JMS
// headers take precedence, then user properties; missing identifiers are
// null per the selector spec.
func (m *Message) SelectorField(name string) (Value, bool) {
	if v, ok := m.HeaderField(name); ok {
		return v, ok
	}
	return m.Property(name)
}

// MapSet sets a named value in a MapMessage body. It panics when the
// message is not a MapMessage: mixing body kinds is a programming error.
func (m *Message) MapSet(name string, v Value) {
	m.mustBeMutable("MapSet")
	if m.bodyKind != MapBody {
		panic(fmt.Sprintf("message: MapSet on %v", m.bodyKind))
	}
	m.body.set(name, v)
}

// MapGet returns a named value from a MapMessage body.
func (m *Message) MapGet(name string) (Value, bool) { return m.body.get(name) }

// MapEntries returns the MapMessage entries in insertion order. The
// slice belongs to the message: callers must not modify it.
func (m *Message) MapEntries() []Entry { return m.body.list }

// MapLen reports the number of entries in a MapMessage body.
func (m *Message) MapLen() int { return len(m.body.list) }

// Clone returns a deep, mutable copy. Since frozen messages are fanned
// out by reference, cloning is reserved for the paths that truly need a
// private copy — e.g. expanding a payload before re-publishing, or a
// redelivery that must flip Redelivered without aliasing live deliveries.
// A clone of a frozen message is unfrozen and carries no cached encoding.
func (m *Message) Clone() *Message {
	c := *m
	c.frozen = false
	c.encSize = 0
	c.encOnce = nil
	c.enc = nil
	c.props = m.props.clone()
	c.body = m.body.clone()
	if m.bytes != nil {
		c.bytes = append([]byte(nil), m.bytes...)
	}
	if m.stream != nil {
		c.stream = append([]Value(nil), m.stream...)
	}
	return &c
}

// EncodedSize estimates the wire size of the message in bytes: fixed
// header fields, property table and body. It matches the wire codec's
// actual output size. Frozen messages return the size cached at freeze
// time without recomputing.
func (m *Message) EncodedSize() int {
	if m.frozen {
		return m.encSize
	}
	n := 1 + // body kind
		4 + len(m.ID) +
		1 + 4 + len(m.Dest.Name) +
		8 + 8 + 1 + // timestamp, expiration, priority
		4 + len(m.CorrelationID) +
		1 + 4 + len(m.ReplyTo.Name) +
		4 + len(m.Type) +
		1 + 1 // redelivered, mode
	n += m.props.encodedSize()
	switch m.bodyKind {
	case TextBody:
		n += 4 + len(m.text)
	case BytesBody, ObjectBody:
		n += 4 + len(m.bytes)
	case MapBody:
		n += m.body.encodedSize()
	case StreamBody:
		n += 4
		for _, v := range m.stream {
			n += v.EncodedSize()
		}
	}
	return n
}

// Equal reports whether two messages have identical headers, properties
// and bodies. Property and map ordering is ignored.
func (m *Message) Equal(o *Message) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.ID != o.ID || m.Dest != o.Dest || m.Timestamp != o.Timestamp ||
		m.Expiration != o.Expiration || m.Priority != o.Priority ||
		m.CorrelationID != o.CorrelationID || m.ReplyTo != o.ReplyTo ||
		m.Type != o.Type || m.Redelivered != o.Redelivered || m.Mode != o.Mode ||
		m.bodyKind != o.bodyKind || m.text != o.text {
		return false
	}
	if !m.props.equal(&o.props) || !m.body.equal(&o.body) {
		return false
	}
	if len(m.bytes) != len(o.bytes) {
		return false
	}
	for i := range m.bytes {
		if m.bytes[i] != o.bytes[i] {
			return false
		}
	}
	if len(m.stream) != len(o.stream) {
		return false
	}
	for i := range m.stream {
		if !m.stream[i].Equal(o.stream[i]) {
			return false
		}
	}
	return true
}

// String renders a compact debug form.
func (m *Message) String() string {
	return fmt.Sprintf("%v{id=%s dest=%v props=%d body=%dB}", m.bodyKind, m.ID, m.Dest, len(m.props.list), m.EncodedSize())
}
