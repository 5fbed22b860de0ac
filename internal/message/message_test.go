package message

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// paperMapMessage builds the paper's exact monitoring payload: "Two
// integer, five float, two long, three double and four string values were
// packaged in a JMS MapMessage".
func paperMapMessage() *Message {
	m := NewMap()
	m.MapSet("id", Int(42))
	m.MapSet("seq", Int(7))
	m.MapSet("power", Float(1.5))
	m.MapSet("voltage", Float(239.9))
	m.MapSet("current", Float(13.1))
	m.MapSet("frequency", Float(50.01))
	m.MapSet("phase", Float(0.4))
	m.MapSet("sent_ns", Long(123456789))
	m.MapSet("uptime_ns", Long(987654321))
	m.MapSet("temp", Double(341.2))
	m.MapSet("pressure", Double(101.3))
	m.MapSet("fuel", Double(0.73))
	m.MapSet("site", String("aberdeen-07"))
	m.MapSet("model", String("wind-v90"))
	m.MapSet("status", String("RUNNING"))
	m.MapSet("operator", String("grid-ops"))
	return m
}

func TestDestinations(t *testing.T) {
	top := Topic("power.monitoring")
	if top.Kind != TopicKind || top.Name != "power.monitoring" {
		t.Fatalf("topic = %+v", top)
	}
	q := Queue("jobs")
	if q.Kind != QueueKind {
		t.Fatalf("queue = %+v", q)
	}
	if !(Destination{}).IsZero() || top.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if top.String() != "topic:power.monitoring" {
		t.Fatalf("String = %q", top.String())
	}
}

func TestEnumsStringers(t *testing.T) {
	if NonPersistent.String() != "NON_PERSISTENT" || Persistent.String() != "PERSISTENT" {
		t.Fatal("delivery mode names")
	}
	if AutoAck.String() != "AUTO_ACKNOWLEDGE" || ClientAck.String() != "CLIENT_ACKNOWLEDGE" || DupsOKAck.String() != "DUPS_OK_ACKNOWLEDGE" {
		t.Fatal("ack mode names")
	}
	if MapBody.String() != "MapMessage" || TextBody.String() != "TextMessage" {
		t.Fatal("body kind names")
	}
	if DeliveryMode(9).String() == "" || AckMode(9).String() == "" || BodyKind(99).String() == "" || DestKind(9).String() == "" {
		t.Fatal("unknown enum stringers empty")
	}
}

func TestNewDefaults(t *testing.T) {
	m := New()
	if m.Priority != 4 || m.Mode != NonPersistent || m.BodyKind() != EmptyBody {
		t.Fatalf("defaults: %+v", m)
	}
}

func TestTextMessage(t *testing.T) {
	m := NewText("hello")
	if m.BodyKind() != TextBody || m.Text() != "hello" {
		t.Fatal("text message")
	}
}

func TestBytesAndObject(t *testing.T) {
	m := NewBytes([]byte{1, 2, 3})
	if m.BodyKind() != BytesBody || len(m.BytesPayload()) != 3 {
		t.Fatal("bytes message")
	}
	m2 := New()
	m2.SetObject([]byte{9})
	if m2.BodyKind() != ObjectBody || len(m2.BytesPayload()) != 1 {
		t.Fatal("object message")
	}
}

func TestStreamMessage(t *testing.T) {
	m := New()
	m.StreamAppend(Int(1))
	m.StreamAppend(String("two"))
	if m.BodyKind() != StreamBody || len(m.Stream()) != 2 {
		t.Fatal("stream message")
	}
}

func TestProperties(t *testing.T) {
	m := New()
	m.SetProperty("id", Int(9))
	m.SetProperty("site", String("x"))
	m.SetProperty("id", Int(10)) // overwrite keeps order
	v, ok := m.Property("id")
	if !ok || !v.Equal(Int(10)) {
		t.Fatalf("property id = %v %v", v, ok)
	}
	if _, ok := m.Property("nope"); ok {
		t.Fatal("missing property found")
	}
	props := m.Properties()
	if len(props) != 2 || props[0].Name != "id" || props[1].Name != "site" {
		t.Fatalf("properties = %v", props)
	}
}

func TestHeaderFields(t *testing.T) {
	m := New()
	m.ID = "ID:42"
	m.Priority = 7
	m.Timestamp = 1234
	m.CorrelationID = "c1"
	m.Type = "telemetry"
	m.Mode = Persistent
	m.Redelivered = true
	cases := map[string]Value{
		"JMSPriority":      Int(7),
		"JMSTimestamp":     Long(1234),
		"JMSMessageID":     String("ID:42"),
		"JMSCorrelationID": String("c1"),
		"JMSType":          String("telemetry"),
		"JMSDeliveryMode":  String("PERSISTENT"),
		"JMSRedelivered":   Bool(true),
	}
	for name, want := range cases {
		got, ok := m.HeaderField(name)
		if !ok || !got.Equal(want) {
			t.Errorf("HeaderField(%s) = %v %v, want %v", name, got, ok, want)
		}
	}
	if _, ok := m.HeaderField("JMSBogus"); ok {
		t.Fatal("unknown header resolved")
	}
	m.Mode = NonPersistent
	if v, _ := m.HeaderField("JMSDeliveryMode"); v.AsString() != "NON_PERSISTENT" {
		t.Fatal("non-persistent mode header")
	}
}

func TestSelectorFieldPrecedence(t *testing.T) {
	m := New()
	m.Priority = 9
	m.SetProperty("JMSPriority", Int(1)) // header must win
	m.SetProperty("custom", String("v"))
	if v, ok := m.SelectorField("JMSPriority"); !ok || !v.Equal(Int(9)) {
		t.Fatalf("header precedence: %v %v", v, ok)
	}
	if v, ok := m.SelectorField("custom"); !ok || v.AsString() != "v" {
		t.Fatal("property lookup")
	}
	if _, ok := m.SelectorField("absent"); ok {
		t.Fatal("absent field resolved")
	}
}

func TestMapBody(t *testing.T) {
	m := paperMapMessage()
	if m.MapLen() != 16 {
		t.Fatalf("map len = %d, want 16 (2 int + 5 float + 2 long + 3 double + 4 string)", m.MapLen())
	}
	v, ok := m.MapGet("voltage")
	if !ok {
		t.Fatal("voltage missing")
	}
	if f, err := v.AsDouble(); err != nil || f < 239 || f > 240 {
		t.Fatalf("voltage = %v %v", f, err)
	}
	if _, ok := m.MapGet("absent"); ok {
		t.Fatal("absent map entry found")
	}
	es := m.MapEntries()
	if es[0].Name != "id" || es[len(es)-1].Name != "operator" {
		t.Fatalf("map order: %v", es)
	}
}

func TestMapSetOnNonMapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MapSet on text message did not panic")
		}
	}()
	NewText("x").MapSet("a", Int(1))
}

func TestClone(t *testing.T) {
	m := paperMapMessage()
	m.ID = "ID:1"
	m.SetProperty("id", Int(5))
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.MapSet("power", Float(99))
	c.SetProperty("id", Int(6))
	c.ID = "ID:2"
	if v, _ := m.MapGet("power"); !v.Equal(Float(1.5)) {
		t.Fatal("clone aliased map body")
	}
	if v, _ := m.Property("id"); !v.Equal(Int(5)) {
		t.Fatal("clone aliased properties")
	}
	if m.ID != "ID:1" {
		t.Fatal("clone aliased headers")
	}
}

func TestCloneBytesIndependent(t *testing.T) {
	m := NewBytes([]byte{1, 2, 3})
	c := m.Clone()
	c.BytesPayload()[0] = 9
	if m.BytesPayload()[0] != 1 {
		t.Fatal("clone aliased bytes")
	}
}

func TestEqual(t *testing.T) {
	a, b := paperMapMessage(), paperMapMessage()
	if !a.Equal(b) {
		t.Fatal("identical messages unequal")
	}
	b.MapSet("power", Float(2))
	if a.Equal(b) {
		t.Fatal("different bodies equal")
	}
	c := paperMapMessage()
	c.Priority = 9
	if a.Equal(c) {
		t.Fatal("different headers equal")
	}
	var nilMsg *Message
	if a.Equal(nilMsg) || !nilMsg.Equal(nil) {
		t.Fatal("nil handling")
	}
}

func TestEncodedSizePaperPayload(t *testing.T) {
	m := paperMapMessage()
	size := m.EncodedSize()
	// The paper's payload is a small message; sanity check the range.
	if size < 150 || size > 600 {
		t.Fatalf("paper payload encodes to %d bytes, expected a few hundred", size)
	}
	// Adding a property grows the size by exactly name + value cost.
	before := m.EncodedSize()
	m.SetProperty("k", Int(1))
	if m.EncodedSize() != before+4+1+5 {
		t.Fatalf("property size delta wrong: %d -> %d", before, m.EncodedSize())
	}
}

func TestMessageStringer(t *testing.T) {
	m := paperMapMessage()
	m.ID = "ID:9"
	s := m.String()
	if !strings.Contains(s, "MapMessage") || !strings.Contains(s, "ID:9") {
		t.Fatalf("String() = %q", s)
	}
}

// TestLargeTablesMatchGoMap: past indexAbove entries the map body and
// the property table switch to an index; lookups, overwrites, length and
// first-insertion order must still match a Go map and an order slice.
func TestLargeTablesMatchGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMap()
	refMap, refProps := map[string]int32{}, map[string]int32{}
	var mapOrder, propOrder []string
	for i := range 2000 {
		name := fmt.Sprintf("n%d", rng.Intn(3*indexAbove))
		v := int32(i)
		if rng.Intn(2) == 0 {
			if _, ok := refMap[name]; !ok {
				mapOrder = append(mapOrder, name)
			}
			refMap[name] = v
			m.MapSet(name, Int(v))
		} else {
			if _, ok := refProps[name]; !ok {
				propOrder = append(propOrder, name)
			}
			refProps[name] = v
			m.SetProperty(name, Int(v))
		}
		probe := fmt.Sprintf("n%d", rng.Intn(4*indexAbove))
		got, ok := m.MapGet(probe)
		want, wantOK := refMap[probe]
		if ok != wantOK || (ok && !got.Equal(Int(want))) {
			t.Fatalf("op %d: MapGet(%s) = %v,%v, want %d,%v", i, probe, got, ok, want, wantOK)
		}
		got, ok = m.Property(probe)
		want, wantOK = refProps[probe]
		if ok != wantOK || (ok && !got.Equal(Int(want))) {
			t.Fatalf("op %d: Property(%s) = %v,%v, want %d,%v", i, probe, got, ok, want, wantOK)
		}
	}
	if m.MapLen() != len(refMap) || len(m.Properties()) != len(refProps) {
		t.Fatalf("lengths %d/%d, want %d/%d", m.MapLen(), len(m.Properties()), len(refMap), len(refProps))
	}
	for i, e := range m.MapEntries() {
		if e.Name != mapOrder[i] || !e.Val.Equal(Int(refMap[e.Name])) {
			t.Fatalf("map entry %d = %v, want %s=%d", i, e, mapOrder[i], refMap[mapOrder[i]])
		}
	}
	for i, e := range m.Properties() {
		if e.Name != propOrder[i] {
			t.Fatalf("property %d = %s, want %s", i, e.Name, propOrder[i])
		}
	}
	c := m.Clone()
	c.MapSet(mapOrder[0], Int(-1))
	if v, _ := m.MapGet(mapOrder[0]); !v.Equal(Int(refMap[mapOrder[0]])) {
		t.Fatal("MapSet on a clone of an indexed map changed the original")
	}
}
