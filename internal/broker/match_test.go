package broker

import (
	"fmt"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for the content-based matching index on the publish path. That
// indexed routing delivers what a linear scan would is the oracle
// storms' job (TestRoutingOracleRandomized); the Match* meters here
// prove the index actually skips non-candidate groups.

// TestMatchIndexMeters pins the index's observable contract on a hot
// topic with many disjoint equality selectors: each publish evaluates
// only the candidate groups (here exactly one), skips the rest, and
// still accounts every skipped group's subscriber into SelectorRejected.
func TestMatchIndexMeters(t *testing.T) {
	const groups = 64
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	for i := 0; i < groups; i++ {
		b.OnFrame(2, wire.Subscribe{
			SubID:    int64(i + 1),
			Dest:     message.Topic("hot"),
			Selector: fmt.Sprintf("key = 'sub-%d'", i),
		})
	}
	for i := 0; i < groups; i++ {
		publishOn(b, 1, fmt.Sprintf("m%d", i), message.Topic("hot"), map[string]message.Value{
			"key": message.String(fmt.Sprintf("sub-%d", i)),
		})
	}
	st := b.Stats()
	if st.Delivered != groups {
		t.Fatalf("delivered %d, want %d", st.Delivered, groups)
	}
	if want := uint64(groups * (groups - 1)); st.SelectorRejected != want {
		t.Fatalf("SelectorRejected = %d, want %d", st.SelectorRejected, want)
	}
	if want := uint64(groups); st.MatchProgramEvals != want {
		t.Fatalf("MatchProgramEvals = %d, want %d (one candidate per publish)", st.MatchProgramEvals, want)
	}
	if want := uint64(groups * (groups - 1)); st.MatchGroupsSkipped != want {
		t.Fatalf("MatchGroupsSkipped = %d, want %d", st.MatchGroupsSkipped, want)
	}
	if st.MatchDurablesSkipped != 0 {
		t.Fatalf("MatchDurablesSkipped = %d, want 0 (no durables in play)", st.MatchDurablesSkipped)
	}
}

// TestMatchIndexDurableCandidates covers the durable slots of the index
// seq space: buffering durables behind non-matching selectors are
// skipped without evaluation, matching ones still buffer.
func TestMatchIndexDurableCandidates(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	for i := 0; i < 8; i++ {
		b.OnFrame(2, wire.Subscribe{
			SubID:       int64(i + 1),
			Dest:        message.Topic("hot"),
			Selector:    fmt.Sprintf("key = 'dur-%d'", i),
			Durable:     true,
			DurableName: fmt.Sprintf("dur-%d", i),
		})
	}
	b.OnConnClose(2) // all durables now buffering

	before := b.Stats()
	publishOn(b, 1, "m", message.Topic("hot"), map[string]message.Value{
		"key": message.String("dur-3"),
	})
	after := b.Stats()

	if got := after.MatchProgramEvals - before.MatchProgramEvals; got != 1 {
		t.Fatalf("evaluated %d durables, want 1 candidate", got)
	}
	if got := after.MatchDurablesSkipped - before.MatchDurablesSkipped; got != 7 {
		t.Fatalf("skipped %d durables, want 7", got)
	}
	if got := after.MatchGroupsSkipped - before.MatchGroupsSkipped; got != 0 {
		t.Fatalf("MatchGroupsSkipped moved by %d, want 0 (durables are not groups)", got)
	}
	dumps := b.DumpDurables()
	stored := 0
	for _, d := range dumps {
		stored += len(d.Backlog)
		if len(d.Backlog) > 0 && d.Name != "dur-3" {
			t.Fatalf("durable %s buffered a non-matching message", d.Name)
		}
	}
	if stored != 1 {
		t.Fatalf("stored %d backlog messages, want 1", stored)
	}
}
