package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"gridmon/internal/message"
)

func sampleMessage() *message.Message {
	m := message.NewMap()
	m.ID = "ID:hydra1-42"
	m.Dest = message.Topic("power.monitoring")
	m.Timestamp = 1234567890
	m.Expiration = 99
	m.Priority = 4
	m.CorrelationID = "corr"
	m.ReplyTo = message.Queue("replies")
	m.Type = "telemetry"
	m.Mode = message.Persistent
	m.SetProperty("id", message.Int(42))
	m.SetProperty("site", message.String("aberdeen"))
	m.MapSet("power", message.Float(1.5))
	m.MapSet("voltage", message.Double(240.1))
	m.MapSet("count", message.Long(7))
	m.MapSet("ok", message.Bool(true))
	m.MapSet("b", message.Byte(-1))
	m.MapSet("s", message.Short(-2))
	m.MapSet("raw", message.Bytes([]byte{1, 2, 3}))
	m.MapSet("none", message.Null())
	return m
}

func allFrames() []Frame {
	return []Frame{
		Connect{ClientID: "gen-17"},
		Connected{BrokerID: "hydra5"},
		Subscribe{SubID: 3, Dest: message.Topic("t"), Selector: "id<10000", Durable: true, DurableName: "d1", AckMode: message.ClientAck},
		SubOK{SubID: 3},
		Unsubscribe{SubID: 3},
		Publish{Seq: 9, Msg: sampleMessage()},
		PubAck{Seq: 9},
		Deliver{SubID: 3, Tag: 77, Msg: sampleMessage()},
		Ack{SubID: 3, Tags: []int64{1, 2, 3}},
		Close{},
		Ping{Token: 5},
		Pong{Token: 5},
		BrokerHello{BrokerID: "hydra5"},
		BrokerForward{Origin: "hydra5", Msg: sampleMessage()},
		BrokerSub{BrokerID: "hydra6", Topic: "power.monitoring", Add: true},
		BrokerLink{BrokerID: "hydra6", Routing: 1},
		RGMAHello{ClientID: "rgma-gen-3"},
		RGMAWelcome{ServerID: "rgmad"},
		RGMACreateTable{Seq: 1, SQL: "CREATE TABLE g (genid INTEGER PRIMARY KEY)"},
		RGMAProducerCreate{Seq: 2, Table: "g", LatestRetentionSec: 30, HistoryRetentionSec: 60},
		RGMAInsert{Seq: 3, Producer: 7, SQLs: []string{"INSERT INTO g (genid) VALUES (1)", "INSERT INTO g (genid) VALUES (2)"}},
		RGMAConsumerCreate{Seq: 4, Query: "SELECT * FROM g WHERE genid < 10", QType: 1},
		RGMAPop{Seq: 5, Consumer: 8},
		RGMAClose{Seq: 6, Producer: true, ID: 7},
		RGMAOK{Seq: 3, ID: 2},
		RGMAErr{Seq: 4, Code: 2, Msg: "conflict"},
		RGMATuples{Seq: 5, Consumer: 8, Tuples: []RGMATuple{
			{Row: []string{"1", "480.5", "'site-0001'"}, InsertedAt: 12345},
			{Row: nil, InsertedAt: 6},
		}},
	}
}

func rgmaTuplesEqual(a, b []RGMATuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].InsertedAt != b[i].InsertedAt || len(a[i].Row) != len(b[i].Row) {
			return false
		}
		for j := range a[i].Row {
			if a[i].Row[j] != b[i].Row[j] {
				return false
			}
		}
	}
	return true
}

func framesEqual(a, b Frame) bool {
	switch av := a.(type) {
	case Publish:
		bv, ok := b.(Publish)
		return ok && av.Seq == bv.Seq && av.Msg.Equal(bv.Msg)
	case Deliver:
		bv, ok := b.(Deliver)
		return ok && av.SubID == bv.SubID && av.Tag == bv.Tag && av.Msg.Equal(bv.Msg)
	case Ack:
		bv, ok := b.(Ack)
		if !ok || av.SubID != bv.SubID || len(av.Tags) != len(bv.Tags) {
			return false
		}
		for i := range av.Tags {
			if av.Tags[i] != bv.Tags[i] {
				return false
			}
		}
		return true
	case BrokerForward:
		bv, ok := b.(BrokerForward)
		return ok && av.Origin == bv.Origin && av.Msg.Equal(bv.Msg)
	case RGMAInsert:
		bv, ok := b.(RGMAInsert)
		if !ok || av.Seq != bv.Seq || av.Producer != bv.Producer || len(av.SQLs) != len(bv.SQLs) {
			return false
		}
		for i := range av.SQLs {
			if av.SQLs[i] != bv.SQLs[i] {
				return false
			}
		}
		return true
	case RGMATuples:
		bv, ok := b.(RGMATuples)
		return ok && av.Seq == bv.Seq && av.Consumer == bv.Consumer && rgmaTuplesEqual(av.Tuples, bv.Tuples)
	default:
		// Remaining frames are comparable structs.
		return a == b
	}
}

func TestRoundTripAllFrames(t *testing.T) {
	for _, f := range allFrames() {
		buf := Marshal(f)
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: unmarshal: %v", f.Type(), err)
		}
		if got.Type() != f.Type() {
			t.Fatalf("type mismatch: %v vs %v", got.Type(), f.Type())
		}
		if !framesEqual(f, got) {
			t.Fatalf("%v: round trip mismatch:\n in: %#v\nout: %#v", f.Type(), f, got)
		}
	}
}

// TestSizeMatchesMarshal: Size is exact for every frame the simulator
// carries — all but the R-GMA frames, which travel only over TCP.
func TestSizeMatchesMarshal(t *testing.T) {
	for _, f := range allFrames() {
		if f.Type() >= FTRGMAHello {
			continue
		}
		if got, want := Size(f), len(Marshal(f)); got != want {
			t.Errorf("%v: Size = %d, Marshal len = %d", f.Type(), got, want)
		}
	}
}

func TestMessageEncodedSizeMatchesWire(t *testing.T) {
	m := sampleMessage()
	p := Publish{Seq: 1, Msg: m}
	// Frame overhead is 1 (type) + 8 (seq); the rest is the message.
	if got := len(Marshal(p)) - 9; got != m.EncodedSize() {
		t.Fatalf("message wire size %d != EncodedSize %d", got, m.EncodedSize())
	}
}

func TestAllBodyKindsRoundTrip(t *testing.T) {
	text := message.NewText("hello world")
	text.ID = "t1"
	bytesMsg := message.NewBytes([]byte{9, 8, 7})
	bytesMsg.ID = "b1"
	obj := message.New()
	obj.SetObject([]byte{1, 1, 2, 3, 5})
	obj.ID = "o1"
	stream := message.New()
	stream.StreamAppend(message.Int(1))
	stream.StreamAppend(message.String("two"))
	stream.ID = "s1"
	empty := message.New()
	empty.ID = "e1"

	for _, m := range []*message.Message{text, bytesMsg, obj, stream, empty} {
		buf := Marshal(Publish{Seq: 1, Msg: m})
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: %v", m.BodyKind(), err)
		}
		gm := got.(Publish).Msg
		if !m.Equal(gm) {
			t.Fatalf("%v round trip mismatch", m.BodyKind())
		}
	}
}

func TestStandaloneMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	buf := MarshalMessage(nil, m)
	got, err := UnmarshalMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("standalone message round trip mismatch")
	}
	// The standalone form is the embedded form: Publish = type + seq + message.
	if want := len(Marshal(Publish{Seq: 1, Msg: m})) - 9; len(buf) != want {
		t.Fatalf("standalone message size %d != embedded size %d", len(buf), want)
	}
	if _, err := UnmarshalMessage(append(buf, 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing bytes err = %v", err)
	}
	if _, err := UnmarshalMessage(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated message must fail")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{200}); !errors.Is(err, ErrUnknownFrame) {
		t.Fatalf("unknown frame err = %v", err)
	}
	// Truncated connect.
	buf := Marshal(Connect{ClientID: "abcdef"})
	if _, err := Unmarshal(buf[:4]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short buffer err = %v", err)
	}
	// Trailing garbage.
	if _, err := Unmarshal(append(Marshal(Close{}), 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing bytes err = %v", err)
	}
	// Empty buffer.
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil buffer should error")
	}
}

func TestCorruptMessagePayload(t *testing.T) {
	buf := Marshal(Publish{Seq: 1, Msg: sampleMessage()})
	// Walk every truncation point; none may panic, all must error.
	for i := 1; i < len(buf); i++ {
		if _, err := Unmarshal(buf[:i]); err == nil {
			t.Fatalf("truncation at %d did not error", i)
		}
	}
}

func TestStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	frames := allFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %v: %v", f.Type(), err)
		}
	}
	fr := NewFrameReader(&buf)
	for _, want := range frames {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !framesEqual(want, got) {
			t.Fatalf("stream round trip mismatch for %v", want.Type())
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Connect{ClientID: "x"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-1]
	if _, err := NewFrameReader(bytes.NewReader(b)).Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadFrameOversize(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := NewFrameReader(bytes.NewReader(hdr)).Read(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize err = %v", err)
	}
}

// Property: arbitrary map messages survive the codec byte-for-byte.
func TestPropertyMapMessageRoundTrip(t *testing.T) {
	f := func(id string, i32 int32, i64 int64, f64 float64, s string, bs []byte, pri uint8) bool {
		m := message.NewMap()
		m.ID = id
		m.Dest = message.Topic("t")
		m.Priority = int(pri % 10)
		m.MapSet("i", message.Int(i32))
		m.MapSet("l", message.Long(i64))
		m.MapSet("d", message.Double(f64))
		m.MapSet("s", message.String(s))
		m.MapSet("b", message.Bytes(bs))
		buf := Marshal(Publish{Seq: 1, Msg: m})
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return m.Equal(got.(Publish).Msg) && len(buf) == Size(Publish{Seq: 1, Msg: m})
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Ack frames with arbitrary tag lists round trip.
func TestPropertyAckRoundTrip(t *testing.T) {
	f := func(sub int64, tags []int64) bool {
		in := Ack{SubID: sub, Tags: tags}
		got, err := Unmarshal(Marshal(in))
		if err != nil {
			return false
		}
		out := got.(Ack)
		if out.SubID != sub || len(out.Tags) != len(tags) {
			return false
		}
		for i := range tags {
			if out.Tags[i] != tags[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenSpliceByteIdentical proves the zero-copy splice path: a
// frozen message's cached-encoding output must be byte-for-byte what the
// field-by-field encoder produces, for every frame kind that carries a
// message and for both value and pointer Deliver forms. Size is checked
// on the value frames, the forms the simulator carries.
func TestFrozenSpliceByteIdentical(t *testing.T) {
	msgs := []*message.Message{sampleMessage(), message.NewText("hello"), message.NewBytes([]byte{1, 2, 3}), message.New()}
	for _, m := range msgs {
		m.ID = "ID:splice"
		m.Dest = message.Topic("power")
		frames := func(mm *message.Message) []Frame {
			return []Frame{
				Deliver{SubID: 3, Tag: 77, Msg: mm},
				&Deliver{SubID: 3, Tag: 77, Msg: mm},
				BrokerForward{Origin: "hydra5", Msg: mm},
				Publish{Seq: 9, Msg: mm},
			}
		}
		full := frames(m)
		want := make([][]byte, len(full))
		for i, f := range full {
			want[i] = Marshal(f) // unfrozen: field-by-field encoding
		}
		frozen := frames(m.Freeze())
		for i, f := range frozen {
			got := Marshal(f) // frozen: cached-encoding splice
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%T: splice output differs from full encoding\n got %x\nwant %x", f, got, want[i])
			}
			if _, pooled := f.(*Deliver); !pooled && len(got) != Size(f) {
				t.Errorf("%T: Size %d != marshal len %d", f, Size(f), len(got))
			}
			// And the spliced bytes must still decode to an equal message.
			rt, err := Unmarshal(got)
			if err != nil {
				t.Fatalf("%T: unmarshal spliced frame: %v", f, err)
			}
			switch v := rt.(type) {
			case Deliver:
				if !v.Msg.Equal(m) {
					t.Errorf("%T: spliced round trip message differs", f)
				}
			case Publish:
				if !v.Msg.Equal(m) {
					t.Errorf("%T: spliced round trip message differs", f)
				}
			case BrokerForward:
				if !v.Msg.Equal(m) {
					t.Errorf("%T: spliced round trip message differs", f)
				}
			}
		}
	}
}

// TestDeliverPoolRoundTrip checks pooled frames reset cleanly.
func TestDeliverPoolRoundTrip(t *testing.T) {
	d := GetDeliver()
	d.SubID, d.Tag, d.Msg = 1, 2, sampleMessage()
	PutDeliver(d)
	d2 := GetDeliver()
	if d2.SubID != 0 || d2.Tag != 0 || d2.Msg != nil {
		t.Fatalf("pooled Deliver not zeroed: %+v", d2)
	}
	PutDeliver(d2)
}

func BenchmarkMarshalPublish(b *testing.B) {
	p := Publish{Seq: 1, Msg: sampleMessage()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(p)
	}
}

func BenchmarkUnmarshalPublish(b *testing.B) {
	buf := Marshal(Publish{Seq: 1, Msg: sampleMessage()})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSize(b *testing.B) {
	p := Publish{Seq: 1, Msg: sampleMessage()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Size(p)
	}
}
