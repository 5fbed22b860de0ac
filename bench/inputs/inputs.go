// Package inputs generates every byte the benchmark sends to a daemon,
// deterministically from the run's seed. The end-to-end workloads and
// the layer replays both draw from it, so a replay pushes the same
// messages, selectors and SQL statements through one layer that the
// loopback run pushes through the whole daemon.
package inputs

import (
	"fmt"
	"math/rand"

	"gridmon/internal/gridgen"
	"gridmon/internal/message"
)

// Generators is the number of simulated power generators whose ids a
// publisher carries round-robin, and so the length of every message
// ring.
const Generators = 1000

// Grid is one publisher's ring of pre-built monitoring messages: the
// paper's 16-field MapMessage, one per generator id, in a seed-shuffled
// order. A publisher sends Msgs[s%Generators] as its s-th message after
// overwriting only the "seq" field.
type Grid struct {
	Msgs []*message.Message
	// ID[i] and Power[i] are the "id" and "power_kw" fields of Msgs[i],
	// kept for the receiver's payload check.
	ID    []int32
	Power []float32
	// Pos[id] is the ring slot that carries generator id.
	Pos []int32
}

// NewGrid builds a ring for one publisher. Rings of different publishers
// (pub) differ in order and readings but share the id space 0…999.
func NewGrid(seed int64, pub int, dest message.Destination) *Grid {
	rng := rand.New(rand.NewSource(seed*1009 + int64(pub)))
	g := &Grid{
		Msgs:  make([]*message.Message, Generators),
		ID:    make([]int32, Generators),
		Power: make([]float32, Generators),
		Pos:   make([]int32, Generators),
	}
	for i, id := range rng.Perm(Generators) {
		m := gridgen.MonitoringMessage(id, 0)
		power := float32(4000+rng.Intn(2000)) / 10
		m.MapSet("power_kw", message.Float(power))
		m.MapSet("voltage", message.Float(float32(230+rng.Intn(200))/10))
		m.Dest = dest
		// A fixed id spares the client a Sprintf per publish; uniqueness
		// is carried by the seq field.
		m.ID = fmt.Sprintf("ID:bench/%d/%d", pub, id)
		g.Msgs[i] = m
		g.ID[i] = int32(id)
		g.Power[i] = power
		g.Pos[id] = int32(i)
	}
	return g
}

// SharedSelector is the paper's subscriber selector; every generated id
// satisfies it.
const SharedSelector = gridgen.PaperSelector

// DistinctSelector is the k-th of the match_churn selectors: it accepts
// exactly the messages of generator k.
func DistinctSelector(k int) string { return fmt.Sprintf("id = %d", k) }

// ChurnSelector is the j-th selector the churner registers and removes.
// No generated id reaches it, so churn never changes the expected
// deliveries.
func ChurnSelector(j int) string { return fmt.Sprintf("id = %d", Generators+j) }

// R-GMA inputs.

// TableSQL declares the table the rgma_stream workload inserts into.
const TableSQL = "CREATE TABLE generator (genid INTEGER PRIMARY KEY, seq INTEGER, power DOUBLE PRECISION, site CHAR(20))"

// PushQuery selects about half of the generated tuples; PollQuery all.
const (
	PushQuery  = "SELECT * FROM generator WHERE power > 500"
	PollQuery  = "SELECT * FROM generator"
	ChurnQuery = "SELECT * FROM generator WHERE power > 100000"
)

// BatchSize is the number of INSERT statements per InsertBatch frame.
const BatchSize = 16

// Tuples is a ring of pre-rendered INSERT statements grouped in batches.
// The producer cycles through Batches; tuple i of the ring (counting
// across batches) carries i in its seq column.
type Tuples struct {
	Batches [][]string
	// Matching lists, ascending, the ring indexes whose power exceeds
	// the push query's threshold.
	Matching []int32
	// LastMatch[b] is the ring index of batch b's last matching tuple,
	// or -1 when none matches.
	LastMatch []int32
	// Genid[i] is the genid column of ring tuple i, for the receiver's
	// payload check.
	Genid []int32
}

// Len is the number of tuples in the ring.
func (t *Tuples) Len() int { return len(t.Batches) * BatchSize }

// NewTuples builds a ring of nBatches batches.
func NewTuples(seed int64, nBatches int) *Tuples {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	t := &Tuples{
		Batches:   make([][]string, nBatches),
		LastMatch: make([]int32, nBatches),
		Genid:     make([]int32, nBatches*BatchSize),
	}
	for b := range t.Batches {
		batch := make([]string, BatchSize)
		t.LastMatch[b] = -1
		for j := range batch {
			i := b*BatchSize + j
			genid := rng.Intn(Generators)
			t.Genid[i] = int32(genid)
			// One decimal, never exactly 500: the threshold comparison
			// cannot depend on float rendering.
			tenths := rng.Intn(10000)
			if tenths == 5000 {
				tenths++
			}
			batch[j] = fmt.Sprintf(
				"INSERT INTO generator (genid, seq, power, site) VALUES (%d, %d, %d.%d, 'site-%04d')",
				genid, i, tenths/10, tenths%10, genid%500)
			if tenths > 5000 {
				t.Matching = append(t.Matching, int32(i))
				t.LastMatch[b] = int32(i)
			}
		}
		t.Batches[b] = batch
	}
	return t
}
