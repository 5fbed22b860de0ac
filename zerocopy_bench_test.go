package gridmon

import (
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Encode-once benchmark: the splice path (cached message encoding
// memcpy'd into each Deliver frame) against field-by-field re-encoding
// per frame. `go test -bench=DeliverEncode` runs it.

// zerocopyMessage is the payload of the encode benchmark: same shape as
// the fan-out bench publishes.
func zerocopyMessage() *message.Message {
	m := message.NewText("reading")
	m.ID = "ID:bench/1"
	m.Dest = message.Topic("power")
	m.SetProperty("id", message.Int(4242))
	m.SetProperty("region", message.String("eu"))
	m.SetProperty("name", message.String("gen-42"))
	m.SetProperty("load", message.Double(400))
	return m
}

// BenchmarkDeliverEncode compares the splice path (frozen message,
// cached encoding appended per frame) against full field-by-field
// encoding (unfrozen message), per Deliver frame written into a reused
// transport buffer — the per-subscriber cost of a TCP fan-out.
func BenchmarkDeliverEncode(b *testing.B) {
	for _, mode := range []string{"splice", "full"} {
		b.Run(mode, func(b *testing.B) {
			m := zerocopyMessage()
			if mode == "splice" {
				m.Freeze()
			}
			d := &wire.Deliver{SubID: 7, Tag: 1, Msg: m}
			buf := make([]byte, 0, 4096)
			// Prime the encoding cache outside the timed loop, as the
			// first delivery of a fan-out would.
			var err error
			if buf, err = wire.AppendFrame(buf[:0], d); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = wire.AppendFrame(buf[:0], d)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
