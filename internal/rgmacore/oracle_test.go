package rgmacore

import (
	"maps"
	"slices"
	"strings"

	"gridmon/internal/rgma"
	"gridmon/internal/selector"
	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// oracleCore is the deliberately naive reference the randomized storms
// compare the Core against: producers and consumers in two plain slices
// (registration order), and for every inserted row the predicate
// engine's tree-walking reference (EvalInterpreted over a RowSource,
// resolving names per evaluation, not the compiled Program) per
// consumer — no lock domains, no snapshot, no matching index. It predicts each buffered
// continuous consumer's ordered tuple stream, and gathers latest/history
// pops by walking the producer slice, so a table index the Core forgot
// to republish shows up as a pop divergence.
//
// Resource ids are taken from the Core (the storm registers a resource
// here after the Core created it); the buffer cap, push sinks and the
// journal are not modelled. Callers are single-goroutine.
type oracleCore struct {
	tables    map[string]*sqlmini.Table
	producers []*oracleProducer
	consumers []*oracleConsumer
}

// oracleProducer is a producer's storage kept naively, apart from
// rgma.TupleStore: every retained tuple in one slice and the newest per
// key in a map, under the store's retention rule.
type oracleProducer struct {
	id                 int64
	table              *sqlmini.Table
	latestRet, histRet sim.Time
	history            []rgma.Tuple
	latest             map[string]rgma.Tuple
}

func (p *oracleProducer) store(t rgma.Tuple) {
	p.history = append(p.history, t)
	p.latest[p.key(t.Row)] = t
}

// key renders the row's primary key cells, or every cell when the table
// has none, joined by "|": the identity (and order) of the latest view.
func (p *oracleProducer) key(row sqlmini.Row) string {
	var parts []string
	for i, c := range p.table.Columns {
		if c.Primary {
			parts = append(parts, row[i].String())
		}
	}
	if parts == nil {
		for _, v := range row {
			parts = append(parts, v.String())
		}
	}
	return strings.Join(parts, "|")
}

// gather returns the producer's latest tuples in key order, or its
// history in insert order, after dropping what has expired at now:
// history from its oldest tuple up to the first live one, latest rows
// one by one.
func (p *oracleProducer) gather(now sim.Time, qtype rgma.QueryType) []rgma.Tuple {
	for len(p.history) > 0 && now-p.history[0].InsertedAt > p.histRet {
		p.history = p.history[1:]
	}
	maps.DeleteFunc(p.latest, func(_ string, t rgma.Tuple) bool { return now-t.InsertedAt > p.latestRet })
	if qtype != rgma.LatestQuery {
		return p.history
	}
	var out []rgma.Tuple
	for _, k := range slices.Sorted(maps.Keys(p.latest)) {
		out = append(out, p.latest[k])
	}
	return out
}

type oracleConsumer struct {
	id    int64
	table *sqlmini.Table
	sel   sqlmini.Select
	qtype rgma.QueryType
	buf   []PopTuple
}

func newOracleCore() *oracleCore { return &oracleCore{tables: make(map[string]*sqlmini.Table)} }

func (o *oracleCore) createTable(sql string) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		panic(err)
	}
	ct := st.(sqlmini.CreateTable)
	o.tables[ct.Table.Name] = &ct.Table
}

func (o *oracleCore) addProducer(id int64, table string, latest, history sim.Time) {
	if latest <= 0 {
		latest = DefaultLatestRetention
	}
	if history <= 0 {
		history = DefaultHistoryRetention
	}
	tab := o.tables[table]
	o.producers = append(o.producers, &oracleProducer{id: id, table: tab, latestRet: latest, histRet: history, latest: make(map[string]rgma.Tuple)})
}

func (o *oracleCore) addConsumer(id int64, query string, qtype rgma.QueryType) {
	sel, err := rgma.ParseQuery(query)
	if err != nil {
		panic(err)
	}
	o.consumers = append(o.consumers, &oracleConsumer{id: id, table: o.tables[sel.Table], sel: sel, qtype: qtype})
}

func (o *oracleCore) closeProducer(id int64) {
	o.producers = slices.DeleteFunc(o.producers, func(p *oracleProducer) bool { return p.id == id })
}

func (o *oracleCore) closeConsumer(id int64) {
	o.consumers = slices.DeleteFunc(o.consumers, func(c *oracleConsumer) bool { return c.id == id })
}

// insert stores one row through the producer and streams it to every
// continuous consumer of the producer's table whose WHERE accepts it.
func (o *oracleCore) insert(producerID int64, sqlText string, now sim.Time) {
	st, err := sqlmini.Parse(sqlText)
	if err != nil {
		panic(err)
	}
	for _, p := range o.producers {
		if p.id != producerID {
			continue
		}
		row, err := sqlmini.ReorderInsert(p.table, st.(sqlmini.Insert))
		if err != nil {
			panic(err)
		}
		tuple := rgma.Tuple{Row: row, SentAt: now, InsertedAt: now}
		p.store(tuple)
		for _, cn := range o.consumers {
			if cn.qtype == rgma.ContinuousQuery && cn.table == p.table && cn.accepts(row) {
				cn.buf = append(cn.buf, toPop(tuple))
			}
		}
	}
}

// accepts is the reference verdict of the consumer's WHERE on a row.
func (cn *oracleConsumer) accepts(row sqlmini.Row) bool {
	return cn.sel.Where.EvalInterpreted(&sqlmini.RowSource{Table: cn.table, Row: row}) == selector.TriTrue
}

// pop predicts what Core.Pop returns for the consumer.
func (o *oracleCore) pop(consumerID int64, now sim.Time) []PopTuple {
	var out []PopTuple
	for _, cn := range o.consumers {
		if cn.id != consumerID {
			continue
		}
		if cn.qtype == rgma.ContinuousQuery {
			out, cn.buf = cn.buf, nil
			break
		}
		for _, p := range o.producers {
			if p.table != cn.table {
				continue
			}
			for _, t := range p.gather(now, cn.qtype) {
				if cn.accepts(t.Row) {
					out = append(out, toPop(t))
				}
			}
		}
	}
	return out
}
