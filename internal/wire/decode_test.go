package wire

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"gridmon/internal/message"
)

// paperMessage is the paper's monitoring sample: one selector property
// and a 16-entry MapMessage (two int, five float, two long, three
// double, four string values), the shape gridgen publishes.
func paperMessage() *message.Message {
	m := message.NewMap()
	m.ID = "ID:gen-17/42"
	m.Dest = message.Topic("power.monitoring")
	m.Timestamp = 1234567890
	m.SetProperty("id", message.Int(17))
	m.MapSet("id", message.Int(17))
	m.MapSet("seq", message.Int(42))
	m.MapSet("power_kw", message.Float(497))
	m.MapSet("voltage", message.Float(239.5))
	m.MapSet("current", message.Float(13.2))
	m.MapSet("frequency", message.Float(50.01))
	m.MapSet("phase", message.Float(0.42))
	m.MapSet("uptime_s", message.Long(86820))
	m.MapSet("energy_wh", message.Long(123456831))
	m.MapSet("temp_k", message.Double(341.25))
	m.MapSet("pressure", message.Double(101.325))
	m.MapSet("efficiency", message.Double(0.9312))
	m.MapSet("site", message.String("site-0017"))
	m.MapSet("model", message.String("wind-v90"))
	m.MapSet("status", message.String("RUNNING"))
	m.MapSet("operator", message.String("grid-ops"))
	return m
}

// adopted reports whether m carries the bytes it was decoded from as its
// cached encoding: an adopted encoding never calls the encoder. Only the
// first probe of a message tells, since a miss fills the cache.
func adopted(m *message.Message) bool {
	called := false
	m.CachedEncoding(func(x *message.Message) []byte {
		called = true
		return encodeMessage(x)
	})
	return !called
}

// rawMap encodes a MapMessage header with the given property and map
// entries written as they come, repeats included, which no Message
// can hold.
func rawMap(props, body []message.Entry) []byte {
	w := &writer{}
	w.u8(uint8(message.MapBody))
	w.str("ID:raw")
	writeDest(w, message.Topic("t"))
	w.u64(1)
	w.u64(0)
	w.u8(4)
	w.str("")
	writeDest(w, message.Destination{})
	w.str("")
	w.bool(false)
	w.u8(uint8(message.NonPersistent))
	writeEntries(w, props)
	writeEntries(w, body)
	return w.buf
}

func TestDecodePaperPublishAllocs(t *testing.T) {
	buf := Marshal(Publish{Seq: 1, Msg: paperMessage()})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	})
	// The frame, the message, the byte copy and one entries array.
	if allocs > 4 {
		t.Fatalf("decoding the paper publish allocates %.0f times, want ≤ 4", allocs)
	}
}

func TestDecodedMessageIsFrozenAndAdopted(t *testing.T) {
	in := paperMessage()
	buf := Marshal(Deliver{SubID: 1, Tag: 2, Msg: in})
	f, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	m := f.(Deliver).Msg
	if frozen, isAdopted := m.Frozen(), adopted(m); !frozen || !isAdopted {
		t.Fatalf("decoded message frozen=%v adopted=%v, want both", frozen, isAdopted)
	}
	if !bytes.Equal(Marshal(f), buf) {
		t.Fatal("re-marshalled delivery differs from the bytes it arrived in")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MapSet on a decoded message did not panic")
			}
		}()
		m.MapSet("seq", message.Int(43))
	}()
	c := m.Clone()
	c.MapSet("seq", message.Int(43))
	if v, _ := m.MapGet("seq"); !v.Equal(message.Int(42)) {
		t.Fatalf("mutating the clone changed the received message: seq=%v", v)
	}
	if !bytes.Equal(Marshal(f), buf) {
		t.Fatal("mutating the clone changed the received message's encoding")
	}
}

// TestDecodeRepeatedNames: a wire table that repeats a name decodes as
// repeated SetProperty/MapSet calls would build it — first position,
// last value — re-encodes without the repeat, and is not adopted.
func TestDecodeRepeatedNames(t *testing.T) {
	e := func(name string, v int32) message.Entry { return message.Entry{Name: name, Val: message.Int(v)} }
	raw := rawMap(
		[]message.Entry{e("id", 1), e("site", 2), e("id", 3)},
		[]message.Entry{e("a", 1), e("b", 2), e("a", 3), e("c", 4), e("b", 5)},
	)
	m, err := UnmarshalMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := message.NewMap()
	want.ID, want.Dest, want.Timestamp = "ID:raw", message.Topic("t"), 1
	want.SetProperty("id", message.Int(1))
	want.SetProperty("site", message.Int(2))
	want.SetProperty("id", message.Int(3))
	for _, en := range []message.Entry{e("a", 1), e("b", 2), e("a", 3), e("c", 4), e("b", 5)} {
		want.MapSet(en.Name, en.Val)
	}
	if m.MapLen() != 3 || len(m.Properties()) != 2 {
		t.Fatalf("MapLen=%d properties=%d, want 3 and 2", m.MapLen(), len(m.Properties()))
	}
	if !m.Equal(want) {
		t.Fatal("decoded repeats differ from last-wins SetProperty/MapSet")
	}
	if adopted(m) {
		t.Fatal("a message with repeated names adopted its non-canonical bytes")
	}
	if got := MarshalMessage(nil, m); !bytes.Equal(got, MarshalMessage(nil, want)) {
		t.Fatalf("re-encoding differs from last-wins MapSet's\n got %x\nwant %x", got, MarshalMessage(nil, want))
	}
}

// TestDecodeNonCanonicalBool: a bool byte other than 0 or 1 reads as
// true and re-encodes as 1, so the message is not adopted.
func TestDecodeNonCanonicalBool(t *testing.T) {
	raw := rawMap(nil, []message.Entry{{Name: "ok", Val: message.Bool(true)}})
	raw[len(raw)-1] = 2
	m, err := UnmarshalMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.MapGet("ok"); !v.Equal(message.Bool(true)) {
		t.Fatalf("bool byte 2 decoded as %v", v)
	}
	if adopted(m) {
		t.Fatal("a non-canonical bool adopted its bytes")
	}
	got := MarshalMessage(nil, m)
	if got[len(got)-1] != 1 || len(got) != len(raw) {
		t.Fatalf("re-encoding %x, want the input with the bool byte 1", got)
	}
}

// TestDecodeLargeMap: past the index threshold a decoded map, repeats
// included, answers MapGet like a Go map, and its clone's MapSet too.
func TestDecodeLargeMap(t *testing.T) {
	var body []message.Entry
	ref := map[string]int32{}
	for i := range 80 {
		name := fmt.Sprintf("k%d", i%50)
		body = append(body, message.Entry{Name: name, Val: message.Int(int32(i))})
		ref[name] = int32(i)
	}
	m, err := UnmarshalMessage(rawMap(nil, body))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	for i := range 60 {
		name := fmt.Sprintf("k%d", i)
		c.MapSet(name, message.Int(int32(1000+i)))
	}
	check := func(what string, m *message.Message, ref map[string]int32) {
		t.Helper()
		if m.MapLen() != len(ref) {
			t.Fatalf("%s: MapLen=%d, want %d", what, m.MapLen(), len(ref))
		}
		for name, v := range ref {
			if got, ok := m.MapGet(name); !ok || !got.Equal(message.Int(v)) {
				t.Fatalf("%s: MapGet(%s)=%v,%v, want %d", what, name, got, ok, v)
			}
		}
		if _, ok := m.MapGet("absent"); ok {
			t.Fatalf("%s: absent name found", what)
		}
	}
	check("decoded", m, ref)
	cref := map[string]int32{}
	for k, v := range ref {
		cref[k] = v
	}
	for i := range 60 {
		cref[fmt.Sprintf("k%d", i)] = int32(1000 + i)
	}
	check("clone", c, cref)
	check("decoded after clone", m, ref)
}

// TestFloatBitsRoundTrip: a float goes out as the bits it holds; a
// signalling NaN must not come back quieted.
func TestFloatBitsRoundTrip(t *testing.T) {
	const snan = 0x7f800001
	in := message.NewMap()
	in.MapSet("f", message.Float(math.Float32frombits(snan)))
	m, err := UnmarshalMessage(MarshalMessage(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.MapGet("f")
	if _, bits, _ := v.Raw(); bits != snan {
		t.Fatalf("float bits %#x came back as %#x", snan, bits)
	}
	if !bytes.Equal(MarshalMessage(nil, m.Clone()), MarshalMessage(nil, in)) {
		t.Fatal("re-encoding the decoded float changed its bits")
	}
}

// TestDecodeConcurrentReads: many readers of one decoded message — the
// broker's fan-out — read its adopted encoding and fields with no write
// the race detector can see.
func TestDecodeConcurrentReads(t *testing.T) {
	buf := Marshal(Publish{Seq: 1, Msg: paperMessage()})
	f, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	m := f.(Publish).Msg
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if !bytes.Equal(Marshal(Publish{Seq: 1, Msg: m}), buf) {
					t.Error("concurrent re-marshal differs")
					return
				}
				if v, ok := m.SelectorField("id"); !ok || !v.Equal(message.Int(17)) {
					t.Error("bad property read")
					return
				}
				if m.MapLen() != 16 || m.EncodedSize() != len(buf)-9 {
					t.Error("bad map length or size")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// carried returns the message a frame carries and a function that
// rebuilds the frame around another message, or nil for frames that
// carry none.
func carried(f Frame) (*message.Message, func(*message.Message) Frame) {
	switch v := f.(type) {
	case Publish:
		return v.Msg, func(m *message.Message) Frame { v.Msg = m; return v }
	case Deliver:
		return v.Msg, func(m *message.Message) Frame { v.Msg = m; return v }
	case BrokerForward:
		return v.Msg, func(m *message.Message) Frame { v.Msg = m; return v }
	}
	return nil, nil
}

// FuzzUnmarshal: no input panics the decoder, and every accepted frame
// re-marshals to bytes that decode and re-marshal to themselves. For a
// frame carrying a message:
//   - the cached encoding equals a field-by-field encode of a Clone;
//   - the message adopted its input bytes exactly when they are
//     canonical (a Clone re-encodes to the input), in which case the
//     frame marshals back to the input.
func FuzzUnmarshal(f *testing.F) {
	for _, fr := range allFrames() {
		f.Add(Marshal(fr))
	}
	// Codes past RGMA_TUPLES name no frame.
	for _, code := range []byte{byte(FTRGMATuples) + 1, byte(FTRGMATuples) + 2} {
		f.Add([]byte{code, 0, 0, 0, 0, 0, 0, 0, 7})
	}
	f.Add(Marshal(Publish{Seq: 1, Msg: paperMessage()}))
	f.Add(Marshal(Deliver{SubID: 1, Tag: 2, Msg: paperMessage()}))
	e := func(name string, v message.Value) message.Entry { return message.Entry{Name: name, Val: v} }
	f.Add(append(Marshal(Publish{Seq: 1, Msg: message.New()})[:9], rawMap(
		[]message.Entry{e("id", message.Int(1)), e("id", message.Bool(true))},
		[]message.Entry{e("a", message.Float(1)), e("b", message.Bytes([]byte{1})), e("a", message.Null())},
	)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		fr, err := Unmarshal(in)
		if err != nil {
			return
		}
		m, rebuild := carried(fr)
		// Probe before anything marshals m and fills its cache.
		isAdopted := m != nil && adopted(m)
		out := Marshal(fr)
		again, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("%v: re-marshalled frame does not decode: %v", fr.Type(), err)
		}
		if !bytes.Equal(Marshal(again), out) {
			t.Fatalf("%v: marshal is not stable across a decode", fr.Type())
		}
		if m == nil {
			return
		}
		if !m.Frozen() {
			t.Fatal("decoded message is not frozen")
		}
		clone := m.Clone()
		if !bytes.Equal(m.CachedEncoding(encodeMessage), encodeMessage(clone)) {
			t.Fatalf("cached encoding (adopted=%v) differs from re-encoding a clone", isAdopted)
		}
		canonical := bytes.Equal(Marshal(rebuild(clone)), in)
		if canonical != isAdopted {
			t.Fatalf("canonical=%v but adopted=%v", canonical, isAdopted)
		}
		if canonical && !bytes.Equal(out, in) {
			t.Fatal("canonical frame does not marshal back to its input")
		}
	})
}
