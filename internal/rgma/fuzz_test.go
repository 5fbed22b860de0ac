package rgma

import (
	"encoding/binary"
	"math"
	"testing"

	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// fuzzTuple reads a tuple from a fuzz input: a cell count byte (1–16),
// then per cell a kind byte (mod 4: NULL, integer, float, string) and
// its payload — 8 little-endian bytes for an integer or a float's bits,
// a length byte and that many bytes for a string — then SentAt and
// InsertedAt, 8 bytes each. Bytes past the end of data read as zero.
// The codec sees a schema only as its column count, so the row is a
// schema of its own.
func fuzzTuple(data []byte) Tuple {
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	row := make(sqlmini.Row, 1+int(next(1)[0])%16)
	for i := range row {
		switch next(1)[0] % 4 {
		case 1:
			row[i] = sqlmini.IntV(int64(binary.LittleEndian.Uint64(next(8))))
		case 2:
			row[i] = sqlmini.FloatV(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
		case 3:
			row[i] = sqlmini.StringV(string(next(int(next(1)[0]))))
		}
	}
	return Tuple{
		Row:        row,
		SentAt:     sim.Time(binary.LittleEndian.Uint64(next(8))),
		InsertedAt: sim.Time(binary.LittleEndian.Uint64(next(8))),
	}
}

// FuzzTupleRecord checks the history record codec: any row encodes to
// recordSize bytes and decodes back with every cell bit-exact; every
// truncation of a record is an error, not a panic; and arbitrary bytes
// decode without panicking, to a tuple that round-trips when accepted.
// The committed corpus (testdata/fuzz/FuzzTupleRecord) holds the
// equivalence test's edge values.
func FuzzTupleRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzTuple(data)
		rec := appendRecord(nil, want)
		if len(rec) != recordSize(want.Row) {
			t.Fatalf("record of %d bytes, recordSize %d", len(rec), recordSize(want.Row))
		}
		row := make(sqlmini.Row, len(want.Row))
		got, n, err := decodeRecord(append(rec, 0xff), row) // a following byte is not read
		if err != nil || n != len(rec) {
			t.Fatalf("decode = %d bytes, %v; want %d bytes", n, err, len(rec))
		}
		if d := sameTuple(got, want); d != "" {
			t.Fatalf("round trip: %s", d)
		}
		for k := range len(rec) {
			if _, _, err := decodeRecord(rec[:k], row); err == nil {
				t.Fatalf("record truncated to %d of %d bytes decoded", k, len(rec))
			}
		}
		got, n, err = decodeRecord(data, row)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoded %d bytes of %d", n, len(data))
		}
		got.Row = cloneRow(got.Row)
		back, _, err := decodeRecord(appendRecord(nil, got), make(sqlmini.Row, len(row)))
		if err != nil {
			t.Fatalf("re-encoded record: %v", err)
		}
		if d := sameTuple(back, got); d != "" {
			t.Fatalf("re-encoded record: %s", d)
		}
	})
}
