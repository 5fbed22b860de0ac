package rgma

import (
	"fmt"

	"gridmon/internal/metrics"
	"gridmon/internal/sim"
	"gridmon/internal/simnet"
	"gridmon/internal/sqlmini"
)

// Costs models R-GMA's servlet-era overheads. CPU costs are virtual time
// on the reference Pentium III node; requests additionally pay RPCLatency
// on the wire. Service CPU costs are inflated by the hosting node's heap
// pressure (gcFactor), the mechanism behind the paper's load growth.
type Costs struct {
	ServletRequest   sim.Time // HTTP parse + servlet dispatch per request
	InsertParse      sim.Time // SQL INSERT parse + validate + store
	PerTupleStream   sim.Time // per tuple per flush at the producer service
	PerTupleIngest   sim.Time // per tuple arriving at the consumer service
	PopRequest       sim.Time // consumer poll handling
	RegistryLookup   sim.Time // mediation lookup
	RegistryRegister sim.Time // producer/consumer registration
	ClientRequest    sim.Time // client-side cost per API call
	RPCLatency       sim.Time // one-way HTTP-over-LAN latency

	StreamPeriod    sim.Time // producer->consumer flush period (base)
	MediationPeriod sim.Time // consumer mediation sweep period
	PollInterval    sim.Time // subscriber poll period (paper: 100 ms)
	SecondaryDelay  sim.Time // Secondary Producer's deliberate delay

	HeapPerProducer int64 // producer resource + servlet/thread state
	HeapPerConsumer int64 // consumer resource state

	// GCAlpha controls heap-pressure slowdown: service times scale by
	// 1/(1-GCAlpha*heapFraction), approximating the paper-era JVM's GC
	// behaviour as the heap fills.
	GCAlpha float64
}

// DefaultCosts returns the calibrated R-GMA model.
func DefaultCosts() Costs {
	return Costs{
		ServletRequest:   1200 * sim.Microsecond,
		InsertParse:      1200 * sim.Microsecond,
		PerTupleStream:   400 * sim.Microsecond,
		PerTupleIngest:   400 * sim.Microsecond,
		PopRequest:       600 * sim.Microsecond,
		RegistryLookup:   5 * sim.Millisecond,
		RegistryRegister: 8 * sim.Millisecond,
		ClientRequest:    300 * sim.Microsecond,
		RPCLatency:       300 * sim.Microsecond,

		StreamPeriod:    1400 * sim.Millisecond,
		MediationPeriod: 3 * sim.Second,
		PollInterval:    100 * sim.Millisecond,
		SecondaryDelay:  30 * sim.Second,

		HeapPerProducer: 1228 << 10, // ~1.2 MB
		HeapPerConsumer: 300 << 10,

		GCAlpha: 0.75,
	}
}

// Deployment is one R-GMA installation: a registry/schema node plus any
// number of producer- and consumer-service nodes (which may all be the
// same node — the paper's "single server" configuration).
type Deployment struct {
	k     *sim.Kernel
	net   *simnet.Network
	costs Costs

	registryNode *simnet.Node
	registry     *Registry
	schema       map[string]*sqlmini.Table

	producerSvcs []*ProducerService
	consumerSvcs []*ConsumerService

	refusedProducers int
	refusedConsumers int
}

// NewDeployment creates a deployment whose registry and schema services
// run on registryNode.
func NewDeployment(net *simnet.Network, registryNode *simnet.Node, costs Costs) *Deployment {
	return &Deployment{
		k:            net.Kernel(),
		net:          net,
		costs:        costs,
		registryNode: registryNode,
		registry:     NewRegistry(),
		schema:       make(map[string]*sqlmini.Table),
	}
}

// Registry exposes the registry state (tests and experiments read it).
func (d *Deployment) Registry() *Registry { return d.registry }

// RefusedProducers reports producer creations refused for memory.
func (d *Deployment) RefusedProducers() int { return d.refusedProducers }

// CreateTable publishes a schema definition (the schema service).
func (d *Deployment) CreateTable(t *sqlmini.Table) {
	d.schema[t.Name] = t
}

// AddProducerService attaches a producer servlet container to a node.
func (d *Deployment) AddProducerService(node *simnet.Node) *ProducerService {
	s := &ProducerService{d: d, idx: len(d.producerSvcs), node: node, resources: make(map[int64]*producerRes)}
	d.producerSvcs = append(d.producerSvcs, s)
	return s
}

// AddConsumerService attaches a consumer servlet container to a node.
func (d *Deployment) AddConsumerService(node *simnet.Node) *ConsumerService {
	s := &ConsumerService{d: d, idx: len(d.consumerSvcs), node: node, resources: make(map[int64]*consumerRes)}
	d.consumerSvcs = append(d.consumerSvcs, s)
	return s
}

// gcFactor reports the heap-pressure service-time multiplier for a node.
func (d *Deployment) gcFactor(node *simnet.Node) float64 {
	limit := node.Heap.Limit()
	if limit <= 0 || d.costs.GCAlpha <= 0 {
		return 1
	}
	u := float64(node.Heap.Used()) / float64(limit)
	if u > 1 {
		u = 1
	}
	f := 1 / (1 - d.costs.GCAlpha*u)
	if f > 12 {
		f = 12
	}
	return f
}

// rpc models one HTTP request leg: wire latency plus serialization, then
// CPU work at the destination scaled by its heap pressure.
func (d *Deployment) rpc(to *simnet.Node, bytes int, cost sim.Time, fn func()) {
	lat := d.costs.RPCLatency + sim.Time(bytes)*80*sim.Nanosecond // 100 Mbps
	d.k.After(lat, func() {
		scaled := sim.Time(float64(cost) * d.gcFactor(to))
		to.CPU.Submit(scaled, fn)
	})
}

// --- producer service ---

// ProducerService hosts producer resources (the paper's "Producer node"
// servlets).
type ProducerService struct {
	d         *Deployment
	idx       int
	node      *simnet.Node
	resources map[int64]*producerRes

	Inserts        uint64
	Flushes        uint64
	TuplesStreamed uint64
}

// Node returns the hosting node.
func (s *ProducerService) Node() *simnet.Node { return s.node }

type streamAttach struct {
	res *consumerRes
	// prog is the consumer query's WHERE predicate, compiled once at
	// attach time; flush matching is per-tuple and runs it constantly.
	prog *sqlmini.Program
}

type producerRes struct {
	svc     *ProducerService
	localID int64
	regID   int64
	kind    ProducerKind
	table   *sqlmini.Table
	store   *TupleStore
	pending []Tuple
	streams []*streamAttach
	closed  bool
}

var producerLocalIDs int64

// flushLoop re-arms itself with a heap-pressure-stretched period, so a
// loaded server streams less often — the dominant term in R-GMA's
// process time.
func (r *producerRes) scheduleFlush() {
	d := r.svc.d
	period := sim.Time(float64(d.costs.StreamPeriod) * d.gcFactor(r.svc.node))
	d.k.After(period, func() {
		if r.closed {
			return
		}
		r.flush()
		r.scheduleFlush()
	})
}

func (r *producerRes) flush() {
	d := r.svc.d
	batch := r.pending
	r.pending = nil
	r.store.Purge(d.k.Now())
	if len(batch) == 0 {
		return
	}
	r.svc.Flushes++
	// Producer-side CPU for assembling the stream chunk, then one RPC
	// per attached consumer carrying the matching tuples.
	cost := d.costs.ServletRequest + sim.Time(len(batch))*d.costs.PerTupleStream
	r.svc.node.CPU.Submit(sim.Time(float64(cost)*d.gcFactor(r.svc.node)), func() {
		for _, att := range r.streams {
			var matched []Tuple
			for _, t := range batch {
				if att.prog.Matches(t.Row) {
					matched = append(matched, t)
				}
			}
			if len(matched) == 0 {
				continue
			}
			r.svc.TuplesStreamed += uint64(len(matched))
			bytes := 120 * len(matched)
			ingest := d.costs.ServletRequest + sim.Time(len(matched))*d.costs.PerTupleIngest
			d.rpc(att.res.svc.node, bytes, ingest, func() {
				att.res.ingest(matched)
			})
		}
	})
}

// --- consumer service ---

// ConsumerService hosts consumer resources (the paper's "Consumer node"
// servlets).
type ConsumerService struct {
	d         *Deployment
	idx       int
	node      *simnet.Node
	resources map[int64]*consumerRes

	TuplesBuffered uint64
	Pops           uint64
}

// Node returns the hosting node.
func (s *ConsumerService) Node() *simnet.Node { return s.node }

// StreamedTuple is a tuple as seen by a consumer, with the instant it
// reached the consumer service (before_receiving in the paper's
// decomposition).
type StreamedTuple struct {
	Tuple
	StreamedAt sim.Time
}

type consumerRes struct {
	svc      *ConsumerService
	regID    int64
	table    string
	query    sqlmini.Select
	prog     *sqlmini.Program // query.Where compiled against the table schema
	qtype    QueryType
	kindPref ProducerKind
	buffer   []StreamedTuple
	known    map[int64]bool
	closed   bool
}

func (c *consumerRes) ingest(tuples []Tuple) {
	if c.closed {
		return
	}
	now := c.svc.d.k.Now()
	for _, t := range tuples {
		c.buffer = append(c.buffer, StreamedTuple{Tuple: t, StreamedAt: now})
	}
	c.svc.TuplesBuffered += uint64(len(tuples))
}

// mediate runs one registry sweep: look up producers for the table and
// attach to any new ones. Continuous queries install a standing stream;
// latest/history queries only record the producer for on-demand reads.
func (c *consumerRes) mediate() {
	d := c.svc.d
	if c.closed {
		return
	}
	d.rpc(d.registryNode, 200, d.costs.RegistryLookup, func() {
		entries := d.registry.ProducersFor(c.table, c.kindPref)
		for _, entry := range entries {
			if c.known[entry.ID] {
				continue
			}
			c.known[entry.ID] = true
			e := entry
			ps := d.producerSvcs[e.Service]
			d.rpc(ps.node, 300, d.costs.ServletRequest, func() {
				r, ok := ps.resources[e.ID]
				if !ok || r.closed {
					return
				}
				if c.qtype == ContinuousQuery {
					r.streams = append(r.streams, &streamAttach{res: c, prog: c.prog})
				}
			})
		}
		d.k.After(sim.Time(float64(d.costs.MediationPeriod)*d.gcFactor(c.svc.node)), c.mediate)
	})
}

// --- client-side API ---

// PrimaryProducer is the client handle for one generator's producer
// resource.
type PrimaryProducer struct {
	d          *Deployment
	clientNode *simnet.Node
	svc        *ProducerService
	res        *producerRes
	seq        int64

	// OnInsertAck observes the completion of each insert round trip
	// (after_sending in the paper's decomposition).
	OnInsertAck func(seq int64, at sim.Time)
}

// CreatePrimaryProducer allocates a producer resource on the given
// producer service with memory storage and the given retention periods,
// and registers it. It fails when the service's heap cannot hold another
// producer — the paper's single-server limit near 800 connections.
func (d *Deployment) CreatePrimaryProducer(clientNode *simnet.Node, svc *ProducerService, tableName string, latestRet, historyRet sim.Time) (*PrimaryProducer, error) {
	table, ok := d.schema[tableName]
	if !ok {
		return nil, fmt.Errorf("rgma: no such table %q", tableName)
	}
	if err := svc.node.Heap.Alloc(d.costs.HeapPerProducer); err != nil {
		d.refusedProducers++
		return nil, fmt.Errorf("rgma: producer refused: %w", err)
	}
	producerLocalIDs++
	res := &producerRes{
		svc:     svc,
		localID: producerLocalIDs,
		kind:    PrimaryKind,
		table:   table,
		store:   NewTupleStore(table, latestRet, historyRet),
	}
	pp := &PrimaryProducer{d: d, clientNode: clientNode, svc: svc, res: res}
	// Register asynchronously; until the registry processes it, no
	// consumer can mediate to this producer (the warm-up window).
	d.rpc(d.registryNode, 250, d.costs.RegistryRegister, func() {
		id := d.registry.RegisterProducer(ProducerEntry{Kind: PrimaryKind, Table: tableName, Service: svc.idx})
		res.regID = id
		svc.resources[id] = res
	})
	res.scheduleFlush()
	return pp, nil
}

// Insert publishes one tuple via SQL INSERT. The row is rendered to SQL
// on the client and parsed by the producer servlet, exercising the real
// SQL path end to end.
func (p *PrimaryProducer) Insert(row sqlmini.Row) int64 {
	p.seq++
	seq := p.seq
	d := p.d
	sentAt := d.k.Now()
	sql := sqlmini.FormatInsert(p.res.table, row)
	p.clientNode.CPU.Submit(d.costs.ClientRequest, func() {
		d.rpc(p.svc.node, len(sql)+200, d.costs.ServletRequest+d.costs.InsertParse, func() {
			if p.res.closed {
				return
			}
			st, err := sqlmini.Parse(sql)
			if err != nil {
				return // malformed inserts are dropped by the servlet
			}
			ins, ok := st.(sqlmini.Insert)
			if !ok {
				return
			}
			r, err := sqlmini.ReorderInsert(p.res.table, ins)
			if err != nil {
				return
			}
			t := Tuple{Row: r, SentAt: sentAt, InsertedAt: d.k.Now()}
			p.res.store.Insert(t)
			p.res.pending = append(p.res.pending, t)
			p.svc.Inserts++
			// Response leg back to the client.
			d.rpc(p.clientNode, 100, d.costs.ClientRequest, func() {
				if p.OnInsertAck != nil {
					p.OnInsertAck(seq, d.k.Now())
				}
			})
		})
	})
	return seq
}

// Close unregisters the producer and frees its resources.
func (p *PrimaryProducer) Close() {
	if p.res.closed {
		return
	}
	p.res.closed = true
	p.svc.node.Heap.Free(p.d.costs.HeapPerProducer)
	if p.res.regID != 0 {
		p.d.registry.UnregisterProducer(p.res.regID)
		delete(p.svc.resources, p.res.regID)
	}
}

// Consumer is the client handle for a consumer resource.
type Consumer struct {
	d          *Deployment
	clientNode *simnet.Node
	svc        *ConsumerService
	res        *consumerRes
}

// CreateConsumer allocates a consumer resource running the given query.
// kindPref restricts mediation to one producer kind (0 = any).
func (d *Deployment) CreateConsumer(clientNode *simnet.Node, svc *ConsumerService, querySrc string, qtype QueryType, kindPref ProducerKind) (*Consumer, error) {
	sel, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	table, ok := d.schema[sel.Table]
	if !ok {
		return nil, fmt.Errorf("rgma: no such table %q", sel.Table)
	}
	if err := svc.node.Heap.Alloc(d.costs.HeapPerConsumer); err != nil {
		d.refusedConsumers++
		return nil, fmt.Errorf("rgma: consumer refused: %w", err)
	}
	res := &consumerRes{
		svc:      svc,
		table:    sel.Table,
		query:    sel,
		prog:     sel.Compiled(table),
		qtype:    qtype,
		kindPref: kindPref,
		known:    make(map[int64]bool),
	}
	d.rpc(d.registryNode, 250, d.costs.RegistryRegister, func() {
		id := d.registry.RegisterConsumer(ConsumerEntry{Table: sel.Table, Service: svc.idx})
		res.regID = id
		svc.resources[id] = res
		res.mediate()
	})
	return &Consumer{d: d, clientNode: clientNode, svc: svc, res: res}, nil
}

// Pop polls the consumer: for continuous queries it drains the buffered
// stream; for latest/history queries it reads the producers' stores
// on demand. cb runs on the client after the response returns.
func (c *Consumer) Pop(cb func([]StreamedTuple)) {
	d := c.d
	c.clientNode.CPU.Submit(d.costs.ClientRequest, func() {
		d.rpc(c.svc.node, 150, d.costs.PopRequest, func() {
			c.svc.Pops++
			switch c.res.qtype {
			case ContinuousQuery:
				batch := c.res.buffer
				c.res.buffer = nil
				d.rpc(c.clientNode, 60+120*len(batch), d.costs.ClientRequest, func() {
					cb(batch)
				})
			default:
				c.gather(cb)
			}
		})
	})
}

// gather answers a latest/history pop by querying every known producer's
// store and combining the results.
func (c *Consumer) gather(cb func([]StreamedTuple)) {
	d := c.d
	now := d.k.Now()
	var out []StreamedTuple
	ids := make([]int64, 0, len(c.res.known))
	for id := range c.res.known {
		ids = append(ids, id)
	}
	remaining := len(ids)
	if remaining == 0 {
		d.rpc(c.clientNode, 60, d.costs.ClientRequest, func() { cb(nil) })
		return
	}
	for _, id := range ids {
		var r *producerRes
		for _, ps := range d.producerSvcs {
			if res, ok := ps.resources[id]; ok {
				r = res
				break
			}
		}
		done := func() {
			remaining--
			if remaining == 0 {
				d.rpc(c.clientNode, 60+120*len(out), d.costs.ClientRequest, func() { cb(out) })
			}
		}
		if r == nil || r.closed {
			done()
			continue
		}
		d.rpc(r.svc.node, 200, d.costs.ServletRequest, func() {
			var tuples []Tuple
			if c.res.qtype == LatestQuery {
				tuples = r.store.LatestCompiled(d.k.Now(), c.res.prog)
			} else {
				tuples = r.store.HistoryCompiled(d.k.Now(), c.res.prog)
			}
			for _, t := range tuples {
				out = append(out, StreamedTuple{Tuple: t, StreamedAt: now})
			}
			done()
		})
	}
}

// Close frees the consumer resource.
func (c *Consumer) Close() {
	if c.res.closed {
		return
	}
	c.res.closed = true
	c.svc.node.Heap.Free(c.d.costs.HeapPerConsumer)
	if c.res.regID != 0 {
		c.d.registry.UnregisterConsumer(c.res.regID)
		delete(c.svc.resources, c.res.regID)
	}
}

// Subscriber is the paper's receiving program: it polls a continuous
// consumer every PollInterval and records round-trip times (SentAt to
// poll-response arrival, which includes the paper's "100 millisecond
// error").
type Subscriber struct {
	c        *Consumer
	rtt      metrics.RTT
	received uint64
	stopped  bool

	// OnTuple observes each tuple after metrics are recorded.
	OnTuple func(t StreamedTuple, at sim.Time)
}

// StartSubscriber begins the poll loop.
func StartSubscriber(c *Consumer) *Subscriber {
	s := &Subscriber{c: c}
	s.poll()
	return s
}

func (s *Subscriber) poll() {
	if s.stopped {
		return
	}
	d := s.c.d
	s.c.Pop(func(batch []StreamedTuple) {
		now := d.k.Now()
		for _, t := range batch {
			s.received++
			s.rtt.Add(float64(now-t.SentAt) / float64(sim.Millisecond))
			if s.OnTuple != nil {
				s.OnTuple(t, now)
			}
		}
	})
	d.k.After(d.costs.PollInterval, s.poll)
}

// Stop ends polling.
func (s *Subscriber) Stop() { s.stopped = true }

// RTT exposes accumulated round-trip statistics.
func (s *Subscriber) RTT() *metrics.RTT { return &s.rtt }

// Received reports tuples delivered to the subscriber.
func (s *Subscriber) Received() uint64 { return s.received }

// --- secondary producer ---

// SecondaryProducer consumes a table's primary stream and re-publishes
// it after the implementation's deliberate delay (30 s in the release
// the paper tested; its developers confirmed the delay was intentional).
type SecondaryProducer struct {
	d    *Deployment
	res  *producerRes
	cons *Consumer
	heap int64
}

// CreateSecondaryProducer installs a secondary producer for a table: a
// continuous consumer over primary producers plus a producer resource
// registered as SecondaryKind that re-publishes each tuple SecondaryDelay
// after it arrives.
func (d *Deployment) CreateSecondaryProducer(psvc *ProducerService, csvc *ConsumerService, tableName string, latestRet, historyRet sim.Time) (*SecondaryProducer, error) {
	table, ok := d.schema[tableName]
	if !ok {
		return nil, fmt.Errorf("rgma: no such table %q", tableName)
	}
	if err := psvc.node.Heap.Alloc(d.costs.HeapPerProducer); err != nil {
		return nil, fmt.Errorf("rgma: secondary producer refused: %w", err)
	}
	producerLocalIDs++
	res := &producerRes{
		svc:     psvc,
		localID: producerLocalIDs,
		kind:    SecondaryKind,
		table:   table,
		store:   NewTupleStore(table, latestRet, historyRet),
	}
	sp := &SecondaryProducer{d: d, res: res, heap: d.costs.HeapPerProducer}
	d.rpc(d.registryNode, 250, d.costs.RegistryRegister, func() {
		id := d.registry.RegisterProducer(ProducerEntry{Kind: SecondaryKind, Table: tableName, Service: psvc.idx})
		res.regID = id
		psvc.resources[id] = res
	})
	res.scheduleFlush()

	cons, err := d.CreateConsumer(psvc.node, csvc, "SELECT * FROM "+tableName, ContinuousQuery, PrimaryKind)
	if err != nil {
		psvc.node.Heap.Free(d.costs.HeapPerProducer)
		res.closed = true
		return nil, err
	}
	sp.cons = cons
	sp.pump()
	return sp, nil
}

// pump drains the internal consumer and schedules each tuple's
// re-publication after the deliberate delay.
func (sp *SecondaryProducer) pump() {
	if sp.res.closed {
		return
	}
	d := sp.d
	sp.cons.Pop(func(batch []StreamedTuple) {
		for _, st := range batch {
			t := st.Tuple
			d.k.After(d.costs.SecondaryDelay, func() {
				if sp.res.closed {
					return
				}
				nt := Tuple{Row: t.Row, SentAt: t.SentAt, InsertedAt: d.k.Now()}
				sp.res.store.Insert(nt)
				sp.res.pending = append(sp.res.pending, nt)
			})
		}
	})
	d.k.After(d.costs.StreamPeriod, sp.pump)
}

// Close tears the secondary producer down.
func (sp *SecondaryProducer) Close() {
	if sp.res.closed {
		return
	}
	sp.res.closed = true
	sp.res.svc.node.Heap.Free(sp.heap)
	if sp.res.regID != 0 {
		sp.d.registry.UnregisterProducer(sp.res.regID)
		delete(sp.res.svc.resources, sp.res.regID)
	}
	sp.cons.Close()
}
