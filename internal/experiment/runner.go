// Package experiment defines one runnable experiment per table and figure
// in the paper's evaluation (§III), plus the ablations called out in
// DESIGN.md. Each experiment builds the relevant topology on the
// discrete-event simulator, drives the paper's generator workload, and
// returns both a rendered text table and the raw numbers (which the test
// suite asserts shape properties against).
package experiment

import (
	"encoding/csv"
	"fmt"
	"strings"

	"gridmon/internal/broker"
	"gridmon/internal/brokernet"
	"gridmon/internal/gridgen"
	"gridmon/internal/message"
	"gridmon/internal/metrics"
	"gridmon/internal/rgma"
	"gridmon/internal/sim"
	"gridmon/internal/simbroker"
	"gridmon/internal/simnet"
	"gridmon/internal/simproc"
)

// Scale trades fidelity for runtime. Full reproduces the paper's
// 30-minute runs (180 publishes per generator, spawn every 0.5 s/1 s);
// Quick shrinks the per-generator publish count — and the spawn ramp by
// the same factor, so the fraction of the run during which all N
// generators publish concurrently matches the full-scale experiment —
// while keeping connection counts, rates and topology identical. The
// queueing behaviour that shapes the results depends on rates and
// concurrency, not run length.
type Scale struct {
	PublishCount int
	// SpawnFactor scales the generator spawn interval (1.0 = the
	// paper's 0.5 s for Narada / 1 s for R-GMA).
	SpawnFactor float64
	Label       string
}

// Full is the paper-fidelity scale (30-minute tests).
func Full() Scale { return Scale{PublishCount: 180, SpawnFactor: 1.0, Label: "full"} }

// Quick is the CI scale: 24 publishes and a proportionally shorter ramp.
func Quick() Scale { return Scale{PublishCount: 24, SpawnFactor: 24.0 / 180.0, Label: "quick"} }

// spawnInterval applies the scale to a base spawn interval.
func (s Scale) spawnInterval(base sim.Time) sim.Time {
	f := s.SpawnFactor
	if f <= 0 {
		f = 1
	}
	iv := sim.Time(float64(base) * f)
	if iv < sim.Millisecond {
		iv = sim.Millisecond
	}
	return iv
}

// genPerClientNode is the paper's limit for generators on one machine
// ("for most tests, we simulated no more than 750 generators on one
// computer").
const genPerClientNode = 750

// NaradaConfig describes one NaradaBrokering run.
type NaradaConfig struct {
	Label       string
	Connections int
	Transport   simbroker.Transport
	AckMode     message.AckMode
	Scale       Scale
	// PayloadTriple enables the paper's test 5 (triple payload at 1/3
	// rate).
	PayloadTriple bool
	// RateFactor multiplies the publish rate (divides the period); the
	// paper's test 6 ("80") uses 10 with a tenth of the connections.
	RateFactor int
	// AggregateFactor > 1 bundles that many samples into one message
	// published at 1/factor rate (the RMM aggregation ablation).
	AggregateFactor int
	// DBN runs the 3-broker distributed broker network instead of a
	// single broker.
	DBN bool
	// Routing selects the DBN routing mode (broadcast = paper's v1.1.3).
	Routing brokernet.RoutingMode
	// Seed for the deterministic kernel.
	Seed int64
}

// NaradaResult carries one run's measurements.
type NaradaResult struct {
	Label       string
	Connections int
	RTT         *metrics.RTT
	Loss        metrics.Loss
	CPUIdlePct  float64 // mean across broker nodes
	MemMB       float64 // mean heap consumption across broker nodes
	Refused     int
}

// RunNarada executes one NaradaBrokering experiment.
func RunNarada(cfg NaradaConfig) NaradaResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.RateFactor == 0 {
		cfg.RateFactor = 1
	}
	k := sim.New(cfg.Seed)
	net := simnet.New(k)

	// Broker topology.
	var hosts []*simbroker.Host
	if cfg.DBN {
		// The paper's DBN: a unit controller assigns addresses to three
		// broker nodes; we arrange them in a chain so cross-broker
		// traffic transits the middle broker.
		ctrl := brokernet.NewController()
		ids := []string{"b1", "b2", "b3"}
		ctrl.ChainLinks(ids)
		if err := ctrl.ValidateTree(); err != nil {
			panic(err)
		}
		for _, id := range ids {
			h := simbroker.NewHost(net, net.AddNode(id, simnet.HydraNode()), broker.DefaultConfig(id), simbroker.DefaultCosts())
			h.JoinNetwork(cfg.Routing)
			hosts = append(hosts, h)
		}
		for _, l := range ctrl.Links() {
			var a, b *simbroker.Host
			for _, h := range hosts {
				if h.Broker().ID() == l[0] {
					a = h
				}
				if h.Broker().ID() == l[1] {
					b = h
				}
			}
			simbroker.Peer(a, b)
		}
	} else {
		h := simbroker.NewHost(net, net.AddNode("broker", simnet.HydraNode()), broker.DefaultConfig("broker"), simbroker.DefaultCosts())
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		h.StartSampler(5 * sim.Second)
	}

	// Client machines.
	nClientNodes := (cfg.Connections + genPerClientNode - 1) / genPerClientNode
	if nClientNodes < 1 {
		nClientNodes = 1
	}
	var clientNodes []*simnet.Node
	for i := 0; i < nClientNodes; i++ {
		clientNodes = append(clientNodes, net.AddNode(fmt.Sprintf("client%d", i+1), simnet.HydraNode()))
	}

	// Placement: each client machine publishes to a machine-specific
	// topic; its monitor subscribes to that topic so data "were received
	// by the node where they were sent". On the DBN, publishers attach
	// to the edge ("publishing") brokers and monitors to the middle
	// ("subscribing") broker.
	nodeOf := func(genID int) int { return genID % nClientNodes }
	pubHost := func(genID int) *simbroker.Host {
		if !cfg.DBN {
			return hosts[0]
		}
		return hosts[nodeOf(genID)%len(hosts)]
	}
	// On the DBN, each client machine's monitor attaches to a different
	// broker than its publishers ("publishers connect to publishing
	// brokers, subscribers connect to subscribing brokers"), so every
	// message crosses the broker network.
	subHostFor := func(clientIdx int) *simbroker.Host {
		if !cfg.DBN {
			return hosts[0]
		}
		return hosts[(clientIdx+1)%len(hosts)]
	}

	period := 10 * sim.Second / sim.Time(cfg.RateFactor)
	payload := gridgen.MonitoringMessage
	if cfg.PayloadTriple {
		payload = func(genID int, seq int64) *message.Message {
			return simbroker.TriplePayload(gridgen.MonitoringMessage(genID, seq))
		}
	}
	if cfg.AggregateFactor > 1 {
		k := cfg.AggregateFactor
		period *= sim.Time(k)
		payload = func(genID int, seq int64) *message.Message {
			// One message carrying k samples' worth of map entries.
			m := gridgen.MonitoringMessage(genID, seq)
			for i := 1; i < k; i++ {
				extra := gridgen.MonitoringMessage(genID, seq*int64(k)+int64(i))
				for _, e := range extra.MapEntries() {
					m.MapSet(fmt.Sprintf("%s_%d", e.Name, i), e.Val)
				}
			}
			return m
		}
	}

	var monitors []*gridgen.Monitor
	for i := 0; i < nClientNodes; i++ {
		mon, err := gridgen.StartMonitor(k, gridgen.MonitorConfig{
			Host:      subHostFor(i),
			Node:      clientNodes[i],
			Transport: cfg.Transport,
			AckMode:   cfg.AckMode,
			Topics:    []string{fmt.Sprintf("power.node%d", i)},
		})
		if err != nil {
			panic(fmt.Sprintf("monitor refused: %v", err))
		}
		monitors = append(monitors, mon)
	}

	fleet := gridgen.StartFleet(k, gridgen.FleetConfig{
		Generators:    cfg.Connections,
		SpawnInterval: cfg.Scale.spawnInterval(500 * sim.Millisecond),
		WarmupMin:     10 * sim.Second,
		WarmupMax:     20 * sim.Second,
		Period:        period,
		PublishCount:  cfg.Scale.PublishCount,
		Transport:     cfg.Transport,
		AckMode:       cfg.AckMode,
		TopicFor:      func(g int) string { return fmt.Sprintf("power.node%d", nodeOf(g)) },
		HostFor:       pubHost,
		NodeFor:       func(g int) *simnet.Node { return clientNodes[nodeOf(g)] },
		Payload:       payload,
	})

	k.RunUntil(fleet.EndTime() + sim.Minute)

	res := NaradaResult{Label: cfg.Label, Connections: cfg.Connections, RTT: &metrics.RTT{}, Refused: fleet.Refused()}
	var received uint64
	for _, mon := range monitors {
		res.RTT.Merge(mon.RTT())
		received += mon.Received()
	}
	res.Loss = metrics.Loss{Sent: fleet.Published(), Received: received}
	// CPU idle is the busiest broker's (on the DBN chain that is the
	// middle broker, which relays everything in broadcast mode); memory
	// is the per-broker mean.
	minIdle := 100.0
	var memSum float64
	for _, h := range hosts {
		if idle := h.Sampler().MeanIdle() * 100; idle < minIdle {
			minIdle = idle
		}
		memSum += float64(h.Node().Heap.Consumption()) / (1 << 20)
	}
	res.CPUIdlePct = minIdle
	res.MemMB = memSum / float64(len(hosts))
	return res
}

// RGMAConfig describes one R-GMA run.
type RGMAConfig struct {
	Label       string
	Connections int
	Distributed bool
	Scale       Scale
	// Secondary routes the subscriber through Secondary Producers
	// (fig. 10's chain).
	Secondary bool
	// NoWarmup makes generators publish immediately after creation (the
	// paper's loss experiment).
	NoWarmup bool
	// PollInterval overrides the subscriber poll period (0 = 100 ms).
	PollInterval sim.Time
	Seed         int64
}

// RGMAResult carries one run's measurements.
type RGMAResult struct {
	Label       string
	Connections int
	RTT         *metrics.RTT
	Loss        metrics.Loss
	CPUIdlePct  float64
	MemMB       float64
	Refused     int
}

// RunRGMA executes one R-GMA experiment.
func RunRGMA(cfg RGMAConfig) RGMAResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	k := sim.New(cfg.Seed)
	net := simnet.New(k)
	costs := rgma.DefaultCosts()
	if cfg.PollInterval > 0 {
		costs.PollInterval = cfg.PollInterval
	}

	// Service topology: single server hosts everything on one node; the
	// distributed deployment uses two producer and two consumer nodes
	// (registry on the first consumer node), as installed in the paper.
	var dep *rgma.Deployment
	var psvcs []*rgma.ProducerService
	var csvcs []*rgma.ConsumerService
	var serviceNodes []*simnet.Node
	if cfg.Distributed {
		p1 := net.AddNode("prod1", simnet.HydraNode())
		p2 := net.AddNode("prod2", simnet.HydraNode())
		c1 := net.AddNode("cons1", simnet.HydraNode())
		c2 := net.AddNode("cons2", simnet.HydraNode())
		dep = rgma.NewDeployment(net, c1, costs)
		psvcs = []*rgma.ProducerService{dep.AddProducerService(p1), dep.AddProducerService(p2)}
		csvcs = []*rgma.ConsumerService{dep.AddConsumerService(c1), dep.AddConsumerService(c2)}
		serviceNodes = []*simnet.Node{p1, p2, c1, c2}
	} else {
		server := net.AddNode("server", simnet.HydraNode())
		dep = rgma.NewDeployment(net, server, costs)
		psvcs = []*rgma.ProducerService{dep.AddProducerService(server)}
		csvcs = []*rgma.ConsumerService{dep.AddConsumerService(server)}
		serviceNodes = []*simnet.Node{server}
	}
	dep.CreateTable(rgma.MonitoringTable())

	var samplers []*simproc.Sampler
	for _, n := range serviceNodes {
		samplers = append(samplers, simproc.NewSampler(k, n.CPU, n.Heap, 5*sim.Second))
	}

	nClientNodes := (cfg.Connections + genPerClientNode - 1) / genPerClientNode
	if nClientNodes < 1 {
		nClientNodes = 1
	}
	var clientNodes []*simnet.Node
	for i := 0; i < nClientNodes; i++ {
		clientNodes = append(clientNodes, net.AddNode(fmt.Sprintf("client%d", i+1), simnet.HydraNode()))
	}

	// One secondary producer per producer service when requested.
	if cfg.Secondary {
		for i, ps := range psvcs {
			if _, err := dep.CreateSecondaryProducer(ps, csvcs[i%len(csvcs)], "generator", 30*sim.Second, sim.Minute); err != nil {
				panic(err)
			}
		}
	}

	// One consumer + subscriber per client machine, partitioned by genid
	// range so each machine receives exactly its own generators' data.
	kindPref := rgma.ProducerKind(0)
	if cfg.Secondary {
		kindPref = rgma.SecondaryKind
	} else {
		kindPref = rgma.PrimaryKind
	}
	var subs []*rgma.Subscriber
	for i := 0; i < nClientNodes; i++ {
		query := fmt.Sprintf("SELECT * FROM generator WHERE genid >= %d AND genid < %d",
			i*genPerClientNode, (i+1)*genPerClientNode)
		cons, err := dep.CreateConsumer(clientNodes[i], csvcs[i%len(csvcs)], query, rgma.ContinuousQuery, kindPref)
		if err != nil {
			panic(fmt.Sprintf("consumer refused: %v", err))
		}
		subs = append(subs, rgma.StartSubscriber(cons))
	}

	// Generator fleet: created at 1 s intervals; each waits the warm-up
	// (10–20 s, or none for the loss experiment) then inserts every 10 s.
	warmMin, warmMax := 10*sim.Second, 20*sim.Second
	if cfg.NoWarmup {
		warmMin, warmMax = 0, 3*sim.Second
	}
	var published uint64
	refused := 0
	spawnIv := cfg.Scale.spawnInterval(sim.Second)
	for g := 0; g < cfg.Connections; g++ {
		g := g
		k.At(sim.Time(g)*spawnIv, func() {
			ps := psvcs[g%len(psvcs)]
			pp, err := dep.CreatePrimaryProducer(clientNodes[g%nClientNodes], ps, "generator", 30*sim.Second, sim.Minute)
			if err != nil {
				refused++
				return
			}
			warm := warmMin
			if span := int64(warmMax - warmMin); span > 0 {
				warm += sim.Time(k.Rand().Int63n(span))
			}
			seq := int64(0)
			var tick *sim.Ticker
			tick = k.Every(k.Now()+warm, 10*sim.Second, func() {
				if seq >= int64(cfg.Scale.PublishCount) {
					tick.Stop()
					return
				}
				seq++
				pp.Insert(rgma.MonitoringRow(g, seq))
				published++
			})
		})
	}

	ramp := sim.Time(cfg.Connections) * spawnIv
	end := ramp + warmMax + sim.Time(cfg.Scale.PublishCount+1)*10*sim.Second + 2*sim.Minute
	if cfg.Secondary {
		end += costs.SecondaryDelay + sim.Minute
	}
	k.RunUntil(end)

	res := RGMAResult{Label: cfg.Label, Connections: cfg.Connections, RTT: &metrics.RTT{}, Refused: refused}
	var received uint64
	for _, s := range subs {
		s.Stop()
		res.RTT.Merge(s.RTT())
		received += s.Received()
	}
	res.Loss = metrics.Loss{Sent: published, Received: received}
	var idleSum, memSum float64
	for i, s := range samplers {
		s.Stop()
		idleSum += s.MeanIdle() * 100
		memSum += float64(serviceNodes[i].Heap.Consumption()) / (1 << 20)
	}
	res.CPUIdlePct = idleSum / float64(len(samplers))
	res.MemMB = memSum / float64(len(samplers))
	return res
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteString("\n")
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v int) string     { return fmt.Sprintf("%d", v) }

// CSV renders the table as RFC 4180 CSV (header row first) for plotting
// the figures with external tools.
func (t Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write(t.Header)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return sb.String()
}

func simMillis(ms int) sim.Time { return sim.Time(ms) * sim.Millisecond }

func pctRow(label string, r *metrics.RTT) []string {
	row := []string{label}
	for _, p := range r.Percentiles(metrics.PaperPercentiles...) {
		row = append(row, f1(p))
	}
	return row
}
