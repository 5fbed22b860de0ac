package wire

import "sync/atomic"

// R-GMA binary-transport frames (internal/rgmabin). The request frames
// carry a client-assigned Seq echoed by the matching RGMAOK / RGMAErr /
// RGMATuples reply; Seq 0 is reserved for unsolicited server pushes, so
// a client multiplexes any number of outstanding requests plus
// continuous-query streams over one connection.

// RGMAHello opens an R-GMA binary connection: the first frame a client
// sends, answered by RGMAWelcome.
type RGMAHello struct {
	ClientID string
}

// RGMAWelcome acknowledges RGMAHello.
type RGMAWelcome struct {
	ServerID string
}

// RGMACreateTable declares a table from a CREATE TABLE statement.
type RGMACreateTable struct {
	Seq int64
	SQL string
}

// RGMAProducerCreate allocates a producer resource with memory storage.
// Retention is carried in whole seconds, as the HTTP binding carries it;
// zero selects the server defaults.
type RGMAProducerCreate struct {
	Seq                 int64
	Table               string
	LatestRetentionSec  uint32
	HistoryRetentionSec uint32
}

// RGMAInsert publishes a batch of SQL INSERT statements for one
// producer in a single frame — the binary transport's batching unit.
// The server applies them in order and acknowledges the whole batch
// with one RGMAOK (ID = statements applied) or fails it with the first
// error (RGMAErr; earlier statements in the batch remain applied).
type RGMAInsert struct {
	Seq      int64
	Producer int64
	SQLs     []string
}

// RGMAConsumerCreate installs a consumer query. QType is the
// rgma.QueryType value; a continuous consumer created over the binary
// transport is push-fed (tuples arrive as unsolicited RGMATuples).
type RGMAConsumerCreate struct {
	Seq   int64
	Query string
	QType uint8
}

// RGMAPop requests a latest/history read (request/response on every
// transport).
type RGMAPop struct {
	Seq      int64
	Consumer int64
}

// RGMAClose releases a producer (Producer true) or consumer resource.
type RGMAClose struct {
	Seq      int64
	Producer bool
	ID       int64
}

// RGMAOK acknowledges a request. ID carries the created resource id
// (creates), the applied statement count (inserts), or zero.
type RGMAOK struct {
	Seq int64
	ID  int64
}

// RGMAErr reports a request failure; Code is an rgmabin error code.
type RGMAErr struct {
	Seq  int64
	Code uint8
	Msg  string
}

// RGMATuple is one delivered tuple; cells are SQL literal forms, the
// same rendering the HTTP binding's JSON carries.
type RGMATuple struct {
	Row        []string
	InsertedAt int64
}

// RGMATuples delivers tuples to a consumer: with Seq non-zero it is the
// reply to an RGMAPop; with Seq zero it is an unsolicited server push
// for a continuous query.
//
// Enc, when non-nil, takes precedence over Tuples during Marshal: each
// element is one pre-encoded tuple body (AppendRGMATuple bytes) spliced
// into the frame verbatim — the encode-once fan-out path, where one
// insert's encoding is shared by every subscribed connection. Unmarshal
// always fills Tuples and leaves Enc nil; the two forms produce
// identical bytes.
type RGMATuples struct {
	Seq      int64
	Consumer int64
	Tuples   []RGMATuple
	Enc      [][]byte
}

// Type implementations.
func (RGMAHello) Type() FrameType          { return FTRGMAHello }
func (RGMAWelcome) Type() FrameType        { return FTRGMAWelcome }
func (RGMACreateTable) Type() FrameType    { return FTRGMACreateTable }
func (RGMAProducerCreate) Type() FrameType { return FTRGMAProducerCreate }
func (RGMAInsert) Type() FrameType         { return FTRGMAInsert }
func (RGMAConsumerCreate) Type() FrameType { return FTRGMAConsumerCreate }
func (RGMAPop) Type() FrameType            { return FTRGMAPop }
func (RGMAClose) Type() FrameType          { return FTRGMAClose }
func (RGMAOK) Type() FrameType             { return FTRGMAOK }
func (RGMAErr) Type() FrameType            { return FTRGMAErr }
func (RGMATuples) Type() FrameType         { return FTRGMATuples }

// AppendRGMATuple appends one tuple's frame body (cell count, cells,
// inserted-at) to dst. It is exported so the push fan-out path can
// pre-encode a tuple once and carry it via RGMATuples.Enc.
func AppendRGMATuple(dst []byte, t RGMATuple) []byte {
	w := &writer{buf: dst}
	w.u32(uint32(len(t.Row)))
	for _, c := range t.Row {
		w.str(c)
	}
	w.u64(uint64(t.InsertedAt))
	return w.buf
}

func writeRGMATuples(w *writer, v RGMATuples) {
	w.u64(uint64(v.Seq))
	w.u64(uint64(v.Consumer))
	if v.Enc != nil {
		w.u32(uint32(len(v.Enc)))
		for _, e := range v.Enc {
			w.buf = append(w.buf, e...)
		}
		return
	}
	w.u32(uint32(len(v.Tuples)))
	for _, t := range v.Tuples {
		w.buf = AppendRGMATuple(w.buf, t)
	}
}

// pushMerge lays queued frames on a stream under the R-GMA push rule:
// queue-adjacent continuous-query pushes (Seq 0 RGMATuples carrying Enc)
// for the same consumer merge into one RGMATuples frame splicing all
// their tuple encodings, so a subscribed connection sees one frame per
// insert batch instead of one per statement. Merging preserves order:
// any other frame, or a push for another consumer, first appends the
// pending run. Replies (Seq ≠ 0) never merge, and a stream without
// pushes is laid down exactly as AppendFrame lays it. FrameWriter keeps
// one per connection.
type pushMerge struct {
	run     RGMATuples // pending run, valid while active
	active  bool
	scratch [][]byte       // backing for run.Enc, reused across runs
	merges  *atomic.Uint64 // counts pushes that joined a pending run
}

// append lays f on dst after the pending run, or adds it to the run.
func (p *pushMerge) append(dst []byte, f Frame) ([]byte, error) {
	t, push := f.(RGMATuples)
	push = push && t.Seq == 0 && t.Enc != nil
	if push && p.active && p.run.Consumer == t.Consumer {
		p.run.Enc = append(p.run.Enc, t.Enc...)
		p.merges.Add(1)
		return dst, nil
	}
	dst, err := p.flush(dst)
	switch {
	case err != nil:
		return dst, err
	case !push:
		return AppendFrame(dst, f)
	}
	p.run = RGMATuples{Consumer: t.Consumer, Enc: append(p.scratch[:0], t.Enc...)}
	p.active = true
	return dst, nil
}

// flush appends the pending run, if any, to dst as one frame.
func (p *pushMerge) flush(dst []byte) ([]byte, error) {
	if !p.active {
		return dst, nil
	}
	dst, err := AppendFrame(dst, p.run)
	p.scratch = p.run.Enc[:0]
	p.run, p.active = RGMATuples{}, false
	return dst, err
}

func readRGMATuple(r *reader) RGMATuple {
	var t RGMATuple
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		t.Row = append(t.Row, r.str())
	}
	t.InsertedAt = int64(r.u64())
	return t
}

func readRGMATuples(r *reader) RGMATuples {
	v := RGMATuples{Seq: int64(r.u64()), Consumer: int64(r.u64())}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		v.Tuples = append(v.Tuples, readRGMATuple(r))
	}
	return v
}
