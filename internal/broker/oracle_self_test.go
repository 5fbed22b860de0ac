package broker

import (
	"math"
	"reflect"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// TestOracleHandComputed validates the oracle on its own, against
// expectations worked out by hand — no broker involved — so the storms
// that compare the broker to the oracle are not checking the oracle
// only with the code it checks.
func TestOracleHandComputed(t *testing.T) {
	type step func(o *oracle)
	open := func(c ConnID) step { return func(o *oracle) { _ = o.OnConnOpen(c) } }
	closeConn := func(c ConnID) step { return func(o *oracle) { o.OnConnClose(c) } }
	sub := func(c ConnID, id int64, topic, sel string) step {
		return func(o *oracle) {
			o.OnFrame(c, wire.Subscribe{SubID: id, Dest: message.Topic(topic), Selector: sel})
		}
	}
	durable := func(c ConnID, id int64, topic, sel, name string) step {
		return func(o *oracle) {
			o.OnFrame(c, wire.Subscribe{SubID: id, Dest: message.Topic(topic), Selector: sel, Durable: true, DurableName: name})
		}
	}
	unsub := func(c ConnID, id int64) step {
		return func(o *oracle) { o.OnFrame(c, wire.Unsubscribe{SubID: id}) }
	}
	pub := func(msgID, topic string, id message.Value) step {
		return func(o *oracle) {
			m := message.NewText("x")
			m.ID, m.Dest = msgID, message.Topic(topic)
			m.SetProperty("id", id)
			o.OnFrame(9, wire.Publish{Msg: m})
		}
	}
	type got = map[ConnID][]delivery
	type backlogs = map[string][]string

	cases := []struct {
		name     string
		steps    []step
		got      got
		backlogs backlogs
		rejected uint64
	}{
		{
			name: "shared selector",
			steps: []step{open(1), open(2), sub(1, 10, "t", "id < 50"), sub(2, 20, "t", "id < 50"),
				pub("m1", "t", message.Int(10)), pub("m2", "t", message.Int(70)), pub("m3", "other", message.Int(10))},
			got:      got{1: {{10, "m1"}}, 2: {{20, "m1"}}},
			rejected: 2,
		},
		{
			name: "disjoint id = k selectors",
			steps: []step{open(1), sub(1, 1, "t", "id = 0"), sub(1, 2, "t", "id = 1"), sub(1, 3, "t", "id = 2"),
				pub("m1", "t", message.Int(1)), pub("m2", "t", message.Int(2)), pub("m3", "t", message.Int(7))},
			got:      got{1: {{2, "m1"}, {3, "m2"}}},
			rejected: 2 + 2 + 3,
		},
		{
			name: "NaN operand matches only <>",
			steps: []step{open(1), sub(1, 1, "t", "id < 50"), sub(1, 2, "t", "id <> 50"), sub(1, 3, "t", "id >= 50"), sub(1, 4, "t", ""),
				pub("nan", "t", message.Double(math.NaN()))},
			got:      got{1: {{2, "nan"}, {4, "nan"}}},
			rejected: 2,
		},
		{
			name: "offline durable buffers, reattach replays in order",
			steps: []step{open(1), durable(1, 1, "t", "id < 50", "d"), pub("live", "t", message.Int(1)), closeConn(1),
				pub("b1", "t", message.Int(2)), pub("skip", "t", message.Int(99)), pub("b2", "t", message.Int(3)),
				open(2), durable(2, 7, "t", "id < 50", "d"), pub("live2", "t", message.Int(4))},
			got: got{1: {{1, "live"}}, 2: {{7, "b1"}, {7, "b2"}, {7, "live2"}}},
			// "skip" met no live subscriber: offline durables do not count
			// into SelectorRejected.
			rejected: 0,
		},
		{
			name: "durable recreated on another topic drops its backlog",
			steps: []step{open(1), durable(1, 1, "t1", "", "d"), closeConn(1), pub("old", "t1", message.Int(1)),
				open(2), durable(2, 2, "t2", "", "d"), closeConn(2),
				pub("stale", "t1", message.Int(2)), pub("kept", "t2", message.Int(3))},
			got:      got{},
			backlogs: backlogs{"d": {"kept"}},
		},
		{
			name: "unsubscribe mid-stream; durable unsubscribe destroys the durable",
			steps: []step{open(1), sub(1, 1, "t", ""), durable(1, 2, "t", "", "d"), pub("m1", "t", message.Int(1)),
				unsub(1, 1), unsub(1, 2), pub("m2", "t", message.Int(2))},
			got: got{1: {{1, "m1"}, {2, "m1"}}},
		},
		{
			name: "second active durable consumer refused; duplicate sub id drops the connection",
			steps: []step{open(1), open(2), durable(1, 1, "t", "", "d"), durable(2, 1, "t", "", "d"), sub(2, 5, "t", ""),
				pub("m1", "t", message.Int(1)), sub(2, 5, "t", ""), pub("m2", "t", message.Int(2))},
			got: got{1: {{1, "m1"}, {1, "m2"}}, 2: {{5, "m1"}}},
		},
		{
			name:  "invalid selector rejected, sub id stays free",
			steps: []step{open(1), sub(1, 1, "t", "id <<< banana"), sub(1, 1, "t", "id = 1"), pub("m1", "t", message.Int(1))},
			got:   got{1: {{1, "m1"}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOracle()
			_ = o.OnConnOpen(9) // the publisher
			for _, s := range tc.steps {
				s(o)
			}
			if !reflect.DeepEqual(o.got, tc.got) {
				t.Errorf("deliveries %v, want %v", o.got, tc.got)
			}
			want := tc.backlogs
			if want == nil {
				want = backlogs{}
			}
			if got := o.backlogs(); !reflect.DeepEqual(got, want) {
				t.Errorf("backlogs %v, want %v", got, want)
			}
			if o.rejected != tc.rejected {
				t.Errorf("rejected %d, want %d", o.rejected, tc.rejected)
			}
		})
	}
}
