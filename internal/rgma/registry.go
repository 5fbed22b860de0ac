package rgma

import (
	"fmt"
	"slices"
	"strings"

	"gridmon/internal/sqlmini"
)

// ProducerKind distinguishes primary from secondary producers in the
// registry, so queries can be mediated to the right kind (the paper's
// fig. 10 chain reads from Secondary Producers).
type ProducerKind uint8

// Producer kinds.
const (
	PrimaryKind ProducerKind = iota + 1
	SecondaryKind
)

func (k ProducerKind) String() string {
	if k == PrimaryKind {
		return "PrimaryProducer"
	}
	return "SecondaryProducer"
}

// ProducerEntry is a registry record for one producer resource.
type ProducerEntry struct {
	ID      int64
	Kind    ProducerKind
	Table   string
	Service int // producer-service index hosting the resource
}

// ConsumerEntry is a registry record for one consumer resource.
type ConsumerEntry struct {
	ID      int64
	Table   string
	Service int // consumer-service index hosting the resource
}

// Registry is the R-GMA registry's core logic: producer/consumer records
// and table-based mediation. It is single-goroutine: the deterministic
// simulation kernel's event loop is its only caller, and the deployment
// layer charges CPU and network costs around calls.
// IDs are assigned in registration order and every per-table order is
// registration order, so mediation is deterministic.
type Registry struct {
	nextID    int64
	producers map[int64]ProducerEntry
	consumers map[int64]ConsumerEntry
	// producersByTable indexes producer IDs by lowercased table name in
	// registration order, so ProducersFor is an index lookup instead of
	// a full-registry scan, with a deterministic result order.
	producersByTable map[string][]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		producers:        make(map[int64]ProducerEntry),
		consumers:        make(map[int64]ConsumerEntry),
		producersByTable: make(map[string][]int64),
	}
}

// tableKey normalises a table name for indexing (SQL table matching in
// mediation is case-insensitive, as the old EqualFold scan behaved).
func tableKey(table string) string { return strings.ToLower(table) }

// RegisterProducer records a producer and returns its assigned ID.
func (r *Registry) RegisterProducer(e ProducerEntry) int64 {
	r.nextID++
	e.ID = r.nextID
	key := tableKey(e.Table)
	r.producers[e.ID] = e
	r.producersByTable[key] = append(r.producersByTable[key], e.ID)
	return e.ID
}

// RegisterConsumer records a consumer and returns its assigned ID.
func (r *Registry) RegisterConsumer(e ConsumerEntry) int64 {
	r.nextID++
	e.ID = r.nextID
	r.consumers[e.ID] = e
	return e.ID
}

// UnregisterProducer removes a producer record; an unknown ID is a
// no-op.
func (r *Registry) UnregisterProducer(id int64) {
	e, ok := r.producers[id]
	if !ok {
		return
	}
	delete(r.producers, id)
	key := tableKey(e.Table)
	ids := r.producersByTable[key]
	if i := slices.Index(ids, id); i >= 0 {
		r.producersByTable[key] = slices.Delete(ids, i, i+1)
	}
}

// UnregisterConsumer removes a consumer record; an unknown ID is a
// no-op.
func (r *Registry) UnregisterConsumer(id int64) { delete(r.consumers, id) }

// ProducersFor mediates a consumer query: all producers of the named
// table, restricted to the given kind (0 means any), in registration
// order. The lookup reads only the table's own index entry, so its cost
// does not grow with the number of producers on other tables.
func (r *Registry) ProducersFor(table string, kind ProducerKind) []ProducerEntry {
	var out []ProducerEntry
	for _, id := range r.producersByTable[tableKey(table)] {
		e := r.producers[id]
		if kind == 0 || e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Counts reports registered producer and consumer record counts.
func (r *Registry) Counts() (producers, consumers int) {
	return len(r.producers), len(r.consumers)
}

// QueryType is the R-GMA consumer query flavour.
type QueryType uint8

// Query types.
const (
	ContinuousQuery QueryType = iota + 1
	LatestQuery
	HistoryQuery
)

func (q QueryType) String() string {
	switch q {
	case ContinuousQuery:
		return "CONTINUOUS"
	case LatestQuery:
		return "LATEST"
	case HistoryQuery:
		return "HISTORY"
	}
	return "query(?)"
}

// ParseQuery parses and validates a consumer's SELECT statement. A
// consumer receives whole tuples, so a column list is refused.
func ParseQuery(src string) (sqlmini.Select, error) {
	st, err := sqlmini.Parse(src)
	if err != nil {
		return sqlmini.Select{}, err
	}
	sel, ok := st.(sqlmini.Select)
	if !ok {
		return sqlmini.Select{}, fmt.Errorf("rgma: consumer query must be SELECT, got %T", st)
	}
	if sel.Columns != nil {
		return sqlmini.Select{}, fmt.Errorf("rgma: only SELECT * is served, not a column list")
	}
	return sel, nil
}
