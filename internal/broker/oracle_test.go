package broker

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/selector"
	"gridmon/internal/wire"
)

// oracle is the deliberately naive reference for topic routing that the
// randomized storms compare the broker against: one mutex, topic
// subscriptions in one slice (subscribe order), durables in one slice
// (creation order), the tree-walking selector.EvalInterpreted per
// subscriber per message — no groups, no index, no snapshot, no pool.
// It is driven through the broker's own entry points (OnConnOpen /
// OnConnClose / OnFrame) and predicts, per connection, the ordered
// (SubID, MessageID) topic deliveries, per durable name the buffered
// message ids, and the SelectorRejected count.
//
// Not modelled: queues (their subscriptions only occupy sub ids), acks,
// heap accounting, expiry and backlog caps. Those have one production
// implementation, covered by direct tests and by the shard-count
// equivalence; the storms run with unlimited heap and no caps.
type oracle struct {
	mu       sync.Mutex
	conns    map[ConnID]map[int64]bool // open conns → sub ids in use
	subs     []*oracleSub
	durables []*oracleDurable
	got      map[ConnID][]delivery
	rejected uint64
}

// delivery is one predicted (or observed) topic delivery.
type delivery struct {
	Sub int64
	Msg string
}

type oracleSub struct {
	conn    ConnID
	id      int64
	topic   string
	sel     *selector.Selector
	durable *oracleDurable // nil unless this is a durable's active consumer
}

type oracleDurable struct {
	name, topic string
	sel         *selector.Selector
	active      *oracleSub
	backlog     []string
}

// target is what a storm drives: the broker and the oracle both
// implement it, so one op stream feeds both.
type target interface {
	OnConnOpen(ConnID) error
	OnConnClose(ConnID)
	OnFrame(ConnID, wire.Frame)
}

func newOracle() *oracle {
	return &oracle{conns: make(map[ConnID]map[int64]bool), got: make(map[ConnID][]delivery)}
}

func (o *oracle) OnConnOpen(c ConnID) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.conns[c] = make(map[int64]bool)
	return nil
}

func (o *oracle) OnConnClose(c ConnID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closeConn(c)
}

// closeConn drops the connection's subscriptions; its durables go back
// to buffering.
func (o *oracle) closeConn(c ConnID) {
	delete(o.conns, c)
	o.subs = slices.DeleteFunc(o.subs, func(s *oracleSub) bool {
		if s.conn == c && s.durable != nil {
			s.durable.active = nil
		}
		return s.conn == c
	})
}

func (o *oracle) OnFrame(c ConnID, f wire.Frame) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := o.conns[c]
	if ids == nil {
		return
	}
	switch v := f.(type) {
	case wire.Subscribe:
		o.subscribe(c, ids, v)
	case wire.Unsubscribe:
		delete(ids, v.SubID)
		o.subs = slices.DeleteFunc(o.subs, func(s *oracleSub) bool {
			if s.conn != c || s.id != v.SubID {
				return false
			}
			if d := s.durable; d != nil { // unsubscribe destroys the durable
				o.durables = slices.DeleteFunc(o.durables, func(x *oracleDurable) bool { return x == d })
			}
			return true
		})
	case wire.Publish:
		if v.Msg.Dest.Kind == message.TopicKind {
			o.publish(v.Msg)
		}
	}
}

func (o *oracle) subscribe(c ConnID, ids map[int64]bool, v wire.Subscribe) {
	if ids[v.SubID] { // duplicate id: protocol violation, connection dropped
		o.closeConn(c)
		return
	}
	sel, err := selector.Parse(v.Selector)
	if err != nil {
		return // rejected with a negative SubOK
	}
	switch v.Dest.Kind {
	case message.TopicKind:
	case message.QueueKind:
		ids[v.SubID] = true // queues are not modelled; the id is taken
		return
	default:
		return
	}
	sub := &oracleSub{conn: c, id: v.SubID, topic: v.Dest.Name, sel: sel}
	if v.Durable && v.DurableName != "" {
		d := o.durable(v.DurableName)
		switch {
		case d == nil:
			d = &oracleDurable{name: v.DurableName, topic: sub.topic, sel: sel}
			o.durables = append(o.durables, d)
		case d.active != nil:
			return // one active consumer per durable name
		case d.topic != sub.topic || d.sel.String() != sel.String():
			// JMS recreate-on-change: the old backlog is discarded.
			d.topic, d.sel, d.backlog = sub.topic, sel, nil
		}
		d.active, sub.durable = sub, d
	}
	ids[v.SubID] = true
	o.subs = append(o.subs, sub)
	if d := sub.durable; d != nil {
		for _, id := range d.backlog {
			o.got[c] = append(o.got[c], delivery{sub.id, id})
		}
		d.backlog = nil
	}
}

func (o *oracle) durable(name string) *oracleDurable {
	for _, d := range o.durables {
		if d.name == name {
			return d
		}
	}
	return nil
}

func (o *oracle) publish(m *message.Message) {
	for _, s := range o.subs {
		if s.topic != m.Dest.Name {
			continue
		}
		if s.sel.EvalInterpreted(m) == selector.TriTrue {
			o.got[s.conn] = append(o.got[s.conn], delivery{s.id, m.ID})
		} else {
			o.rejected++
		}
	}
	for _, d := range o.durables {
		if d.active == nil && d.topic == m.Dest.Name && d.sel.EvalInterpreted(m) == selector.TriTrue {
			d.backlog = append(d.backlog, m.ID)
		}
	}
}

// backlogs reports the non-empty durable backlogs by durable name.
func (o *oracle) backlogs() map[string][]string {
	out := make(map[string][]string)
	for _, d := range o.durables {
		if len(d.backlog) > 0 {
			out[d.name] = d.backlog
		}
	}
	return out
}

// canon orders the deliveries of one message on one connection by
// SubID. The broker visits a message's matches fast set first, then
// selector groups by first appearance; the oracle visits in subscribe
// order. Which subscription of a connection sees a message first is not
// part of the contract — the order of messages per connection, and per
// subscription, is, and canon leaves it untouched.
func canon(ds []delivery) []delivery {
	out := slices.Clone(ds)
	for i := 0; i < len(out); {
		j := i
		for j < len(out) && out[j].Msg == out[i].Msg {
			j++
		}
		sort.Slice(out[i:j], func(a, b int) bool { return out[i+a].Sub < out[i+b].Sub })
		i = j
	}
	return out
}

// observed extracts a fakeEnv connection's topic deliveries in emission
// order (queue deliveries are not modelled by the oracle).
func (e *fakeEnv) observed(c ConnID) []delivery {
	var out []delivery
	for _, d := range e.deliveries(c) {
		if d.Msg.Dest.Kind == message.TopicKind {
			out = append(out, delivery{d.SubID, d.Msg.ID})
		}
	}
	return out
}

// check requires the broker to have done what the oracle predicts:
// per-connection topic deliveries (canonical order), durable backlogs
// and the SelectorRejected count. observed returns one connection's
// topic deliveries as the test's Env recorded them.
func (o *oracle) check(t *testing.T, label string, b *Broker, conns []ConnID, observed func(ConnID) []delivery) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range conns {
		if got, want := canon(observed(c)), canon(o.got[c]); !slices.Equal(got, want) {
			t.Fatalf("%s conn %d: broker delivered %v\noracle predicts %v", label, c, got, want)
		}
	}
	backlogs := make(map[string][]string)
	for _, d := range b.DumpDurables() {
		for _, m := range d.Backlog {
			backlogs[d.Name] = append(backlogs[d.Name], m.ID)
		}
	}
	if want := o.backlogs(); !reflect.DeepEqual(backlogs, want) {
		t.Fatalf("%s: durable backlogs %v, oracle predicts %v", label, backlogs, want)
	}
	if got := b.Stats().SelectorRejected; got != o.rejected {
		t.Fatalf("%s: SelectorRejected %d, oracle predicts %d", label, got, o.rejected)
	}
}
