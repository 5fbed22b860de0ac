package rgmacore

import (
	"fmt"
	"testing"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
)

// Tests for the content-based matching index on the insert stream path.
// That indexed streaming delivers what a linear scan would is the
// oracle storm's job (TestCoreOracleRandomized); the meters here prove
// the index actually skips non-candidate consumers.

// TestCoreMatchIndexMeters pins the index's observable contract on a
// hot table with many disjoint equality WHEREs: each insert evaluates
// only the candidate consumers (here exactly one) and skips the rest.
func TestCoreMatchIndexMeters(t *testing.T) {
	const consumers = 64
	c := New(Config{})
	mustCreateTable(t, c, "CREATE TABLE hot (genid INTEGER PRIMARY KEY, site CHAR(20))")
	p, err := c.CreateProducer("hot", sim.Second, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < consumers; i++ {
		q := fmt.Sprintf("SELECT * FROM hot WHERE site = 'c%d'", i)
		if _, err := c.CreateConsumer(q, rgma.ContinuousQuery, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < consumers; i++ {
		stmt := fmt.Sprintf("INSERT INTO hot (genid, site) VALUES (%d, 'c%d')", i, i)
		if err := c.Insert(p.ID(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	st := c.StatsSnapshot()
	if st.TuplesStreamed != consumers {
		t.Fatalf("streamed %d, want %d", st.TuplesStreamed, consumers)
	}
	if want := uint64(consumers); st.MatchProgramEvals != want {
		t.Fatalf("MatchProgramEvals = %d, want %d (one candidate per insert)", st.MatchProgramEvals, want)
	}
	if want := uint64(consumers * (consumers - 1)); st.MatchConsumersSkipped != want {
		t.Fatalf("MatchConsumersSkipped = %d, want %d", st.MatchConsumersSkipped, want)
	}
}

// TestTableIdentityPinned pins the invariant streamInsert's dropped
// table re-check relied on: a table's *Table value is never replaced
// once created — re-declaring the identical schema is a no-op returning
// the same pointer, and a conflicting declaration errors. Consumers and
// producers registered under one table name therefore always share one
// table identity.
func TestTableIdentityPinned(t *testing.T) {
	c := New(Config{})
	const ddl = "CREATE TABLE pin (genid INTEGER PRIMARY KEY, seq INTEGER)"
	t1, err := c.CreateTable(ddl)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.CreateTable(ddl)
	if err != nil {
		t.Fatalf("identical re-create: %v", err)
	}
	if t1 != t2 {
		t.Fatal("identical re-create returned a different *Table — streamInsert's identity assumption broken")
	}
	if _, err := c.CreateTable("CREATE TABLE pin (genid INTEGER PRIMARY KEY, other CHAR(8))"); err == nil {
		t.Fatal("conflicting re-create succeeded — streamInsert's identity assumption broken")
	}

	p, err := c.CreateProducer("pin", sim.Second, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := c.CreateConsumer("SELECT * FROM pin", rgma.ContinuousQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.table != cn.table {
		t.Fatal("producer and consumer of one table hold different *Table values")
	}
}
