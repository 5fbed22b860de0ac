// Destination layer, part 2: topics. Each topic owns the subscription
// index described in the package comment (fast set + selector groups).
// All topicState access happens with the owning shard's lock held; the
// publish path reads the copy-on-write route built from it
// (snapshot.go).

package broker

import (
	"gridmon/internal/predindex"
	"gridmon/internal/selector"
)

// selGroup collects the topic subscriptions sharing one selector source
// text. The group's compiled program is evaluated once per published
// message and its verdict applied to every member. Grouping is textual:
// semantically equivalent but differently written selectors ("id<10" vs
// "id < 10") land in separate groups and are evaluated separately.
type selGroup struct {
	key      string // verbatim selector source
	prog     *selector.Program
	matchKey predindex.Key   // required-conjunct key, cached at group creation
	subs     []*subscription // subscribe order
}

// topicState indexes a topic's subscriptions for publish fan-out: fast
// holds subscriptions delivered without selector evaluation and groups
// holds the selector-bearing ones, deduplicated by selector source.
type topicState struct {
	name   string
	fast   []*subscription      // always-true selectors, subscribe order
	groups []*selGroup          // first-appearance order
	byKey  map[string]*selGroup // selector source -> group
}

func (t *topicState) subCount() int {
	n := len(t.fast)
	for _, g := range t.groups {
		n += len(g.subs)
	}
	return n
}

// add places a subscription into the topic's index: the fast set
// when its selector provably matches everything, otherwise the selector
// group for its selector source (created on first use). Shard lock
// held.
func (t *topicState) add(sub *subscription) {
	if sub.sel.AlwaysTrue() {
		t.fast = append(t.fast, sub)
		return
	}
	key := sub.sel.String()
	g := t.byKey[key]
	if g == nil {
		g = &selGroup{key: key, prog: sub.sel.Compiled(), matchKey: sub.sel.RequiredKey()}
		t.byKey[key] = g
		t.groups = append(t.groups, g)
	}
	g.subs = append(g.subs, sub)
}

// remove removes a subscription from the topic's index,
// preserving the order of the remaining entries. Emptied selector groups
// are dropped. Shard lock held.
func (t *topicState) remove(sub *subscription) {
	if sub.sel.AlwaysTrue() {
		t.fast = removeSub(t.fast, sub)
		return
	}
	key := sub.sel.String()
	g := t.byKey[key]
	if g == nil {
		return
	}
	g.subs = removeSub(g.subs, sub)
	if len(g.subs) == 0 {
		delete(t.byKey, key)
		for i, og := range t.groups {
			if og == g {
				copy(t.groups[i:], t.groups[i+1:])
				t.groups[len(t.groups)-1] = nil // don't pin the dead group
				t.groups = t.groups[:len(t.groups)-1]
				break
			}
		}
	}
}

// removeSub deletes sub from the slice, preserving order and niling the
// vacated tail slot so the backing array does not pin the dead
// subscription (and the pending-delivery map hanging off it).
func removeSub(subs []*subscription, sub *subscription) []*subscription {
	for i, s := range subs {
		if s == sub {
			copy(subs[i:], subs[i+1:])
			subs[len(subs)-1] = nil
			return subs[:len(subs)-1]
		}
	}
	return subs
}
