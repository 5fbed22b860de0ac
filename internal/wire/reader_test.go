package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"gridmon/internal/message"
)

// splitFrames is the reference FrameReader must agree with: it walks a
// whole byte stream frame by frame and stops at the first error, which
// it returns (io.EOF for a stream that ends on a frame boundary).
func splitFrames(data []byte) ([]Frame, error) {
	var out []Frame
	for {
		if len(data) == 0 {
			return out, io.EOF
		}
		if len(data) < 4 {
			return out, io.ErrUnexpectedEOF
		}
		n := binary.BigEndian.Uint32(data)
		if n > MaxFrameSize {
			return out, ErrFrameTooBig
		}
		if uint64(len(data)-4) < uint64(n) {
			return out, io.ErrUnexpectedEOF
		}
		f, err := Unmarshal(data[4 : 4+n])
		if err != nil {
			return out, err
		}
		out = append(out, f)
		data = data[4+n:]
	}
}

// readAll reads frames until the first error.
func readAll(fr *FrameReader) ([]Frame, error) {
	var out []Frame
	for {
		f, err := fr.Read()
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// sameFrames reports how got differs from want, or "" if it does not:
// frames compare by their encoding, terminal errors by message.
func sameFrames(want, got []Frame, wantErr, gotErr error) string {
	if len(want) != len(got) {
		return "frame count differs"
	}
	for i := range want {
		if !bytes.Equal(Marshal(want[i]), Marshal(got[i])) {
			return "frame " + want[i].Type().String() + " differs"
		}
	}
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		return "terminal error differs"
	}
	return ""
}

// streamOf encodes frames back to back, as a connection carries them.
func streamOf(t testing.TB, frames ...Frame) []byte {
	t.Helper()
	var buf []byte
	for _, f := range frames {
		var err error
		if buf, err = AppendFrame(buf, f); err != nil {
			t.Fatalf("append %v: %v", f.Type(), err)
		}
	}
	return buf
}

// textFrame is a Publish whose frame is exactly size bytes, header
// included.
func textFrame(t testing.TB, size int) Frame {
	t.Helper()
	msg := func(text string) *message.Message {
		m := message.NewText(text)
		m.Dest = message.Topic("t")
		return m
	}
	pad := size - len(streamOf(t, Publish{Seq: 1, Msg: msg("")}))
	if pad < 0 {
		t.Fatalf("frame size %d below the minimum", size)
	}
	f := Publish{Seq: 1, Msg: msg(strings.Repeat("x", pad))}
	if n := len(streamOf(t, f)); n != size {
		t.Fatalf("textFrame(%d) encodes to %d bytes", size, n)
	}
	return f
}

// readSizes records the length of every buffer FrameReader hands to
// the stream, and how many reads it made.
type readSizes struct {
	r     io.Reader
	reads int
	max   int
}

func (rs *readSizes) Read(p []byte) (int, error) {
	rs.reads++
	rs.max = max(rs.max, len(p))
	return rs.r.Read(p)
}

// TestFrameReaderMatchesReadFrame: over every way a stream can deliver
// its bytes — all at once, one byte per read, half a buffer per read, or
// with io.EOF riding on the last data — FrameReader yields exactly the
// reference splitter's frames and ends with io.EOF.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	frames := append(allFrames(), textFrame(t, 3*readAhead+5), Close{})
	data := streamOf(t, frames...)
	want, wantErr := splitFrames(data)
	if wantErr != io.EOF || len(want) != len(frames) {
		t.Fatalf("reference split: %d frames, %v", len(want), wantErr)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	} {
		got, err := readAll(NewFrameReader(wrap(bytes.NewReader(data))))
		if d := sameFrames(want, got, wantErr, err); d != "" {
			t.Errorf("%s: %s (got %d frames, %v)", name, d, len(got), err)
		}
	}
}

// TestFrameReaderBurstOneRead: a burst of small frames that fits the
// read-ahead costs one read, and a frame straddling two fills is
// reassembled without growing the buffer.
func TestFrameReaderBurstOneRead(t *testing.T) {
	small := textFrame(t, 400)
	var frames []Frame
	for range 30 {
		frames = append(frames, small)
	}
	rs := &readSizes{r: bytes.NewReader(streamOf(t, frames...))}
	fr := NewFrameReader(rs)
	for i := range frames {
		if _, err := fr.Read(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if rs.reads != 1 {
		t.Fatalf("30 frames of 400 B took %d reads, want 1", rs.reads)
	}

	// 41 frames of 400 B: the first fill stops 16 B short of the end of
	// frame 41.
	frames = append(frames, frames[:11]...)
	data := streamOf(t, frames...)
	rs = &readSizes{r: bytes.NewReader(data)}
	fr = NewFrameReader(rs)
	got, err := readAll(fr)
	if err != io.EOF || len(got) != len(frames) {
		t.Fatalf("straddling stream: %d of %d frames, %v", len(got), len(frames), err)
	}
	if rs.reads != 3 || rs.max != readAhead || len(fr.buf) != readAhead {
		t.Fatalf("straddling stream: %d reads of at most %d B, buffer %d B; want 3 reads, %d B, no growth",
			rs.reads, rs.max, len(fr.buf), readAhead)
	}
}

// TestFrameReaderGrowsAndShrinks: a frame larger than the read-ahead
// grows the buffer to fit; once drained, a buffer grown past 64 KiB is
// dropped for a read-ahead-sized one, and a smaller growth is kept.
func TestFrameReaderGrowsAndShrinks(t *testing.T) {
	for _, tc := range []struct {
		size, keep int
	}{
		{size: 200 << 10, keep: readAhead},
		{size: 40 << 10, keep: 40 << 10},
	} {
		big := textFrame(t, tc.size)
		fr := NewFrameReader(bytes.NewReader(streamOf(t, Close{}, big, Close{})))
		got, err := readAll(fr)
		if err != io.EOF || len(got) != 3 || !framesEqual(big, got[1]) {
			t.Fatalf("%d B frame: %d frames, %v", tc.size, len(got), err)
		}
		if len(fr.buf) != tc.keep {
			t.Fatalf("%d B frame: kept a %d B buffer, want %d", tc.size, len(fr.buf), tc.keep)
		}
	}
}

// TestFrameReaderOversizeNoAlloc: a length above MaxFrameSize is refused
// from the header alone — the buffer never grows for it.
func TestFrameReaderOversizeNoAlloc(t *testing.T) {
	for _, n := range []uint32{MaxFrameSize + 1, 0xFFFFFFFF} {
		data := binary.BigEndian.AppendUint32(nil, n)
		rs := &readSizes{r: bytes.NewReader(append(data, make([]byte, 64)...))}
		fr := NewFrameReader(rs)
		if fr.FrameBuffered() {
			t.Fatal("FrameBuffered before any read")
		}
		if _, err := fr.Read(); !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("length %d: err = %v, want ErrFrameTooBig", n, err)
		}
		if len(fr.buf) != readAhead || rs.max != readAhead {
			t.Fatalf("length %d: buffer %d B, largest read %d B; want no growth", n, len(fr.buf), rs.max)
		}
		if !fr.FrameBuffered() {
			t.Fatalf("length %d: FrameBuffered = false, but Read fails without reading", n)
		}
	}
}

// TestFrameReaderTruncated: cut a stream anywhere — mid-header, mid-body
// or on a frame boundary — and FrameReader returns every whole frame
// before the cut, then io.EOF on a boundary and io.ErrUnexpectedEOF
// inside a frame.
func TestFrameReaderTruncated(t *testing.T) {
	first := streamOf(t, Connect{ClientID: "gen-1"})
	data := append(first, streamOf(t, Publish{Seq: 2, Msg: batchTestMsg()})...)
	for cut := 0; cut <= len(data); cut++ {
		wantN, wantErr := 0, error(io.ErrUnexpectedEOF)
		switch {
		case cut == 0:
			wantErr = io.EOF
		case cut == len(first):
			wantN, wantErr = 1, io.EOF
		case cut == len(data):
			wantN, wantErr = 2, io.EOF
		case cut > len(first):
			wantN = 1
		}
		for _, wrap := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.DataErrReader} {
			got, err := readAll(NewFrameReader(wrap(bytes.NewReader(data[:cut]))))
			if len(got) != wantN || err != wantErr {
				t.Fatalf("cut at %d of %d: %d frames, %v; want %d, %v", cut, len(data), len(got), err, wantN, wantErr)
			}
		}
	}
}

// chunks returns its slices one per read, then io.EOF.
type chunks [][]byte

func (c *chunks) Read(p []byte) (int, error) {
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	if (*c)[0] = (*c)[0][n:]; len((*c)[0]) == 0 {
		*c = (*c)[1:]
	}
	return n, nil
}

// TestFrameReaderFrameBuffered: FrameBuffered is true exactly while the
// next Read can be served from the buffer — false before the first read,
// false when only part of the next frame has arrived.
func TestFrameReaderFrameBuffered(t *testing.T) {
	a := streamOf(t, Ping{Token: 1}, Ping{Token: 2})
	b := streamOf(t, Ping{Token: 3})
	fr := NewFrameReader(&chunks{append(a, b[:3]...), b[3:]})
	var got []bool
	for {
		buffered := fr.FrameBuffered()
		if _, err := fr.Read(); err != nil {
			break
		}
		got = append(got, buffered)
	}
	// Before frame 1: nothing read. Before 2: buffered. Before 3: three
	// of its bytes only.
	if want := []bool{false, true, false}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("FrameBuffered before each read = %v, want %v", got, want)
	}
}

// FuzzFrameReader: FrameReader over an arbitrary byte stream yields the
// reference splitter's frames and terminal error, whether the stream
// arrives whole or a byte at a time.
func FuzzFrameReader(f *testing.F) {
	all := streamOf(f, allFrames()...)
	f.Add(all)
	f.Add(all[:len(all)-1])
	f.Add(all[:2])
	for _, fr := range allFrames() {
		f.Add(streamOf(f, fr))
	}
	// Codes past RGMA_TUPLES name no frame; a valid frame follows.
	for _, code := range []byte{byte(FTRGMATuples) + 1, byte(FTRGMATuples) + 2} {
		f.Add(append([]byte{0, 0, 0, 9, code, 0, 0, 0, 0, 0, 0, 0, 7}, streamOf(f, Ping{Token: 1})...))
	}
	f.Add(streamOf(f, &DeliverBatch{Msg: batchTestMsg(), Entries: []DeliverEntry{{3, 1}, {4, 2}}}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := splitFrames(data)
		got, err := readAll(NewFrameReader(bytes.NewReader(data)))
		if d := sameFrames(want, got, wantErr, err); d != "" {
			t.Fatalf("whole stream: %s: got %d frames, %v; want %d, %v", d, len(got), err, len(want), wantErr)
		}
		got, err = readAll(NewFrameReader(iotest.OneByteReader(bytes.NewReader(data))))
		if d := sameFrames(want, got, wantErr, err); d != "" {
			t.Fatalf("one byte per read: %s: got %d frames, %v; want %d, %v", d, len(got), err, len(want), wantErr)
		}
	})
}
