package message

import (
	"sync"
	"testing"
)

func frozenSample() *Message {
	m := NewMap()
	m.ID = "ID:gen-1/1"
	m.Dest = Topic("power")
	m.Timestamp = 42
	m.SetProperty("id", Int(7))
	m.SetProperty("site", String("aberdeen"))
	m.MapSet("power", Double(480))
	return m.Freeze()
}

func TestFreezeIsIdempotentAndCachesSize(t *testing.T) {
	m := NewText("hello")
	m.ID = "m1"
	want := m.EncodedSize()
	if m.Frozen() {
		t.Fatal("fresh message reports frozen")
	}
	if m.Freeze() != m {
		t.Fatal("Freeze must return the receiver")
	}
	if !m.Frozen() {
		t.Fatal("message not frozen after Freeze")
	}
	if got := m.EncodedSize(); got != want {
		t.Fatalf("cached EncodedSize = %d, want %d", got, want)
	}
	m.Freeze() // no-op
	if got := m.EncodedSize(); got != want {
		t.Fatalf("EncodedSize after re-freeze = %d, want %d", got, want)
	}
}

func TestFrozenMutatorsPanic(t *testing.T) {
	muts := map[string]func(*Message){
		"SetText":      func(m *Message) { m.SetText("x") },
		"SetBytes":     func(m *Message) { m.SetBytes([]byte{1}) },
		"SetObject":    func(m *Message) { m.SetObject([]byte{1}) },
		"StreamAppend": func(m *Message) { m.StreamAppend(Int(1)) },
		"SetProperty":  func(m *Message) { m.SetProperty("p", Int(1)) },
		"MapSet":       func(m *Message) { m.MapSet("k", Int(1)) },
	}
	for name, mut := range muts {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen message did not panic", name)
				}
			}()
			mut(frozenSample())
		}()
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	m := frozenSample()
	// Prime the encoding cache as a transport would.
	enc := m.CachedEncoding(func(*Message) []byte { return []byte{0xAA} })
	if len(enc) != 1 {
		t.Fatalf("cached encoding = %v", enc)
	}
	c := m.Clone()
	if c.Frozen() {
		t.Fatal("clone of frozen message is frozen")
	}
	if !c.Equal(m) {
		t.Fatal("clone differs from original")
	}
	if got := c.CachedEncoding(func(*Message) []byte { return nil }); got != nil {
		t.Fatalf("clone inherited the encoding cache: %v", got)
	}
	// The clone accepts mutation without touching the frozen original.
	c.SetProperty("extra", Int(1))
	c.MapSet("power", Double(500))
	c.Redelivered = true
	if _, ok := m.Property("extra"); ok {
		t.Fatal("mutating the clone leaked into the frozen original")
	}
	v, _ := m.MapGet("power")
	if d, _ := v.AsDouble(); d != 480 {
		t.Fatalf("frozen map value changed: %v", v)
	}
}

func TestUnfrozenHasNoCachedEncoding(t *testing.T) {
	m := NewText("x")
	if got := m.CachedEncoding(func(*Message) []byte { return []byte{1} }); got != nil {
		t.Fatalf("unfrozen CachedEncoding = %v, want nil", got)
	}
}

// TestConcurrentFrozenReads proves the fan-out sharing contract under the
// race detector: one frozen message read concurrently by many
// "subscribers" (selector-style field lookups, size queries, encoding
// cache fills) involves no writes that race.
func TestConcurrentFrozenReads(t *testing.T) {
	m := frozenSample()
	var wg sync.WaitGroup
	encode := func(msg *Message) []byte {
		// Stand-in for the wire codec: derive bytes from message state.
		return append([]byte(nil), byte(msg.BodyKind()), byte(len(msg.Properties())))
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if _, ok := m.SelectorField("id"); !ok {
					t.Error("missing property id")
					return
				}
				if m.EncodedSize() <= 0 {
					t.Error("bad encoded size")
					return
				}
				if len(m.CachedEncoding(encode)) != 2 {
					t.Error("bad cached encoding")
					return
				}
				if m.MapLen() != 1 {
					t.Error("bad map len")
					return
				}
			}
		}()
	}
	wg.Wait()
}
