package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestRGMATuplesEncSpliceByteIdentical pins the encode-once contract:
// marshalling a pre-encoded Enc form (AppendRGMATuple bytes spliced
// verbatim) produces the same bytes as marshalling the Tuples form, so
// the push fan-out path can encode each insert once and share it across
// every subscribed connection.
func TestRGMATuplesEncSpliceByteIdentical(t *testing.T) {
	tuples := []RGMATuple{
		{Row: []string{"1", "2", "480.5", "'site-0001'"}, InsertedAt: 99},
		{Row: []string{"7", "8", "239.9", "'site-0002'"}, InsertedAt: 100},
	}
	plain := RGMATuples{Seq: 0, Consumer: 42, Tuples: tuples}
	enc := make([][]byte, len(tuples))
	for i, tp := range tuples {
		enc[i] = AppendRGMATuple(nil, tp)
	}
	spliced := RGMATuples{Seq: 0, Consumer: 42, Enc: enc}

	a, b := Marshal(plain), Marshal(spliced)
	if !bytes.Equal(a, b) {
		t.Fatalf("Enc splice differs from Tuples encode:\n plain:   %x\n spliced: %x", a, b)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := got.(RGMATuples)
	if !ok || !rgmaTuplesEqual(out.Tuples, tuples) || out.Enc != nil {
		t.Fatalf("round trip of spliced frame = %#v", got)
	}
}

// TestRGMATuplesEmpty covers the zero-tuple forms both ways (an empty
// pop reply is legal).
func TestRGMATuplesEmpty(t *testing.T) {
	for _, f := range []RGMATuples{
		{Seq: 9, Consumer: 1},
		{Seq: 9, Consumer: 1, Enc: [][]byte{}},
	} {
		buf := Marshal(f)
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		out := got.(RGMATuples)
		if out.Seq != 9 || out.Consumer != 1 || len(out.Tuples) != 0 {
			t.Fatalf("round trip = %#v", out)
		}
	}
}

// TestRGMAInsertTruncated exercises the codec's short-buffer latching on
// the batched insert frame.
func TestRGMAInsertTruncated(t *testing.T) {
	buf := Marshal(RGMAInsert{Seq: 1, Producer: 2, SQLs: []string{"INSERT INTO g (genid) VALUES (1)"}})
	for cut := 1; cut < len(buf); cut++ {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestCodesPastRGMATuplesUnknown: no frame type follows RGMA_TUPLES, so
// codes 28 and 29 decode as unknown frames, which every read loop
// answers by closing the connection.
func TestCodesPastRGMATuplesUnknown(t *testing.T) {
	for _, code := range []byte{byte(FTRGMATuples) + 1, byte(FTRGMATuples) + 2} {
		if _, err := Unmarshal([]byte{code, 0, 0, 0, 0, 0, 0, 0, 7}); !errors.Is(err, ErrUnknownFrame) {
			t.Errorf("code %d: err = %v, want ErrUnknownFrame", code, err)
		}
	}
}
