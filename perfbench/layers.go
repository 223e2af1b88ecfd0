package main

import (
	"fmt"
	"math"
	"strconv"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// The traced run re-executes a workload's cells by calling each layer's
// public functions in turn, so every layer gets its own span. The helpers
// below restate how the campaign turns a spec into engine inputs; the
// re-executed results must equal the campaign's rows, which proves the
// restatement and lets the spans price the campaign's own computation.

// cellRun is one sim.Run call of the re-execution.
type cellRun struct {
	scheme  string
	seed    int64
	runS    float64
	allocMB float64
	events  int // trace events of the scenario it simulated
}

// layerRun collects the per-layer measurements of one re-execution.
type layerRun struct {
	generateS    float64 // trace.Generate
	traceAllocMB float64
	traceEvents  int
	topologyS    float64 // gateway graph plus client topology
	collapseS    float64 // campaign.BuildCollapsedScenario
	classes      int
	// buildS is the scenario-building time a campaign pays for the same
	// cells: the full trace and topology, or the collapsed scenario.
	buildS float64
	cells  []cellRun
	// fabric is the SoI+full-switch run of the first seed where the
	// workload does not run that scheme itself.
	fabric       []cellRun
	shardSpeedup float64 // SoI at one shard over SoI at two, first seed
}

// runs returns the re-execution's one-shard sim.Run calls.
func (l *layerRun) runs() []cellRun {
	return append(append([]cellRun(nil), l.cells...), l.fabric...)
}

// fabricS is the time the full-switch fabric adds: SoI+full-switch minus
// SoI, summed over every seed that has both runs.
func (l *layerRun) fabricS() float64 {
	soi := map[int64]float64{}
	for _, c := range l.runs() {
		if c.scheme == "SoI" {
			soi[c.seed] = c.runS
		}
	}
	d := 0.0
	for _, c := range l.runs() {
		if s, ok := soi[c.seed]; ok && c.scheme == "SoI+full-switch" {
			d += c.runS - s
		}
	}
	return d
}

// reexec re-executes every cell of plan at one engine shard and checks
// each result against the campaign's row of the same cell index.
func reexec(plan *campaign.Plan, rows map[int]campaign.Row, tr *tracer, parent int) (*layerRun, error) {
	sp := plan.Spec
	if len(sp.Sweeps) > 0 {
		return nil, fmt.Errorf("reexec: sweeps are not supported")
	}
	l := &layerRun{}
	collapse := sp.Collapse != "off"
	for gi, seed := range sp.Seeds {
		g := tr.begin("group seed="+strconv.FormatInt(seed, 10), parent)
		var cells []campaign.Cell
		needFull, needQuot := false, false
		for _, c := range plan.Cells {
			if c.Seed == seed {
				cells = append(cells, c)
				if collapse && collapsible(c.Scheme) {
					needQuot = true
				} else {
					needFull = true
				}
			}
		}

		t0 := tr.begin("topology.graph", g)
		graph, err := buildGraph(sp, seed)
		graphS := tr.end(t0)
		l.topologyS += graphS
		if err != nil {
			return nil, err
		}

		// The eligibility pass runs on every workload; a failures block
		// only matters once the spec is eligible, and only symmetric
		// placements are.
		probe := sp
		if sp.Trace.Placement != "symmetric" {
			probe.Failures = nil
		}
		c0 := tr.begin("collapse.build", g)
		qtr, qtp, qplan, err := campaign.BuildCollapsedScenario(probe, seed)
		collapseS := tr.end(c0)
		l.collapseS += collapseS
		if err != nil {
			return nil, err
		}
		if qplan == nil {
			needFull, needQuot = true, false
		} else {
			l.classes = qtr.Cfg.APs
		}
		if needQuot {
			l.buildS += collapseS
		}
		if needFull {
			l.buildS += graphS
		}

		var full *trace.Trace
		var fullTopo *topology.Topology
		if needFull {
			cfg, err := traceConfig(sp, seed)
			if err != nil {
				return nil, err
			}
			if full, fullTopo, err = l.generate(cfg, graph, tr, g); err != nil {
				return nil, err
			}
		} else if _, _, err := l.generate(qtr.Cfg, nil, tr, g); err != nil {
			// Only the quotient scenario is built: this times its trace
			// alone, the call BuildCollapsedScenario made inside its span.
			return nil, err
		}

		config := func(sc sim.Scheme, shards int) (sim.Config, int) {
			cfg := sim.Config{
				Scheme: sc, Seed: seed, DSLAM: shelf(sp), K: sp.K,
				IdleTimeout: sp.IdleTimeout, Shards: shards,
			}
			if needQuot && collapsible(sc) {
				cfg.Trace, cfg.Topo, cfg.Quotient = qtr, qtp, qplan
				return cfg, events(qtr)
			}
			cfg.Trace, cfg.Topo = full, fullTopo
			if sp.Failures != nil {
				cfg.Failures = failurePlan(sp, seed)
			}
			return cfg, events(full)
		}
		run := func(sc sim.Scheme, shards int) (cellRun, *sim.Result, error) {
			cfg, ev := config(sc, shards)
			s := tr.begin(fmt.Sprintf("sim.run %s seed=%d shards=%d", sc, seed, shards), g)
			a0 := allocatedMB()
			res, err := sim.Run(cfg)
			cr := cellRun{scheme: sc.String(), seed: seed, events: ev}
			cr.runS, cr.allocMB = tr.end(s), allocatedMB()-a0
			return cr, res, err
		}

		hasFabric := false
		for _, c := range cells {
			cr, res, err := run(c.Scheme, 1)
			if err != nil {
				return nil, fmt.Errorf("reexec %s: %w", c.Key(), err)
			}
			row, ok := rows[c.Index]
			if !ok {
				return nil, fmt.Errorf("reexec %s: the campaign has no row for it", c.Key())
			}
			if err := sameRow(res, row); err != nil {
				return nil, fmt.Errorf("reexec %s: %w", c.Key(), err)
			}
			l.cells = append(l.cells, cr)
			hasFabric = hasFabric || c.Scheme == sim.SoIFullSwitch
		}
		if gi > 0 {
			tr.end(g)
			continue
		}
		// First seed only: the sharding and fabric probes.
		sharded, _, err := run(sim.SoI, 2)
		if err != nil {
			return nil, err
		}
		soi := l.cells[indexOf(l.cells, "SoI", seed)].runS
		l.shardSpeedup = soi / sharded.runS
		if !hasFabric {
			cr, _, err := run(sim.SoIFullSwitch, 1)
			if err != nil {
				return nil, err
			}
			l.fabric = append(l.fabric, cr)
		}
		tr.end(g)
	}
	return l, nil
}

// generate times trace.Generate for cfg and, given a gateway graph, the
// client topology built over it.
func (l *layerRun) generate(cfg trace.Config, graph *topology.Graph, tr *tracer, parent int) (*trace.Trace, *topology.Topology, error) {
	s := tr.begin("trace.generate", parent)
	a0 := allocatedMB()
	t, err := trace.Generate(cfg)
	genS := tr.end(s)
	l.generateS += genS
	l.traceAllocMB += allocatedMB() - a0
	if err != nil {
		return nil, nil, err
	}
	l.traceEvents += events(t)
	if graph == nil {
		return t, nil, nil
	}
	s = tr.begin("topology.build", parent)
	tp, err := topology.FromOverlap(graph, t.ClientAP)
	topoS := tr.end(s)
	l.topologyS += topoS
	l.buildS += genS + topoS
	return t, tp, err
}

func indexOf(cs []cellRun, scheme string, seed int64) int {
	for i, c := range cs {
		if c.scheme == scheme && c.seed == seed {
			return i
		}
	}
	panic("perfbench: no run of " + scheme)
}

func events(t *trace.Trace) int { return len(t.Flows) + len(t.Keepalives) }

// sameRow checks a re-executed result against the campaign's row: exact
// wake-up count and energy, rounded as the campaign rounds it.
func sameRow(res *sim.Result, row campaign.Row) error {
	const kWh = 3.6e6
	got := [3]float64{round6(res.Energy.Total() / kWh), round6(res.Energy.UserJ / kWh), round6(res.Energy.ISPJ / kWh)}
	want := [3]float64{row.EnergyKWh, row.UserKWh, row.ISPKWh}
	if res.Wakeups != row.Wakeups || got != want {
		return fmt.Errorf("re-executed wakeups %d energy %v kWh, campaign row has %d and %v",
			res.Wakeups, got, row.Wakeups, want)
	}
	return nil
}

func round6(x float64) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	f, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	if err != nil {
		return x
	}
	return f
}

// collapsible lists the schemes the campaign simulates on a quotient.
func collapsible(sc sim.Scheme) bool {
	return sc == sim.NoSleep || sc == sim.SoI || sc == sim.SoIFullSwitch
}

// traceConfig restates the campaign's profile-to-generator mapping for
// the profiles the workloads use.
func traceConfig(sp dsl.Spec, seed int64) (trace.Config, error) {
	var cfg trace.Config
	switch sp.Trace.Profile {
	case "office":
		cfg = trace.DefaultSimConfig(seed)
	case "residential":
		cfg = trace.DefaultCityConfig(seed)
	default:
		return cfg, fmt.Errorf("reexec: profile %q is not supported", sp.Trace.Profile)
	}
	cfg.Clients, cfg.APs, cfg.Duration = sp.Trace.Clients, sp.Trace.Gateways, sp.Duration
	cfg.Symmetric = sp.Trace.Placement == "symmetric"
	return cfg, nil
}

// buildGraph restates the campaign's gateway graph for the topology
// kinds the workloads use.
func buildGraph(sp dsl.Spec, seed int64) (*topology.Graph, error) {
	switch sp.Topology.Kind {
	case "overlap":
		return topology.OverlapGraph(sp.Trace.Gateways, sp.Topology.MeanInRange, seed)
	case "grid-city":
		return topology.GridCity(sp.Trace.Gateways, sp.Topology.MeanInRange, seed)
	}
	return nil, fmt.Errorf("reexec: topology %q is not supported", sp.Topology.Kind)
}

// shelf restates the campaign's DSLAM sizing.
func shelf(sp dsl.Spec) dsl.DSLAM {
	if sp.Shelf.Cards > 0 {
		return dsl.DSLAM{Cards: sp.Shelf.Cards, PortsPerCard: sp.Shelf.PortsPerCard}
	}
	if sp.Trace.Gateways <= dsl.EvalDSLAM.Ports() {
		return dsl.EvalDSLAM
	}
	cards := (sp.Trace.Gateways + 47) / 48
	if r := cards % sp.K; r != 0 {
		cards += sp.K - r
	}
	return dsl.DSLAM{Cards: cards, PortsPerCard: 48}
}

// failurePlan restates the campaign's per-seed failure placement.
func failurePlan(sp dsl.Spec, seed int64) sim.FailurePlan {
	f, nGW := sp.Failures, sp.Trace.Gateways
	r := stats.NewRNG(seed, 0xfa17)
	plan := sim.FailurePlan{RebootMeanSec: f.RebootMean, RebootSigma: f.RebootSigma}
	for _, c := range f.Crashes {
		for _, gw := range r.Perm(nGW)[:min(c.Count, nGW)] {
			plan.Crashes = append(plan.Crashes, sim.GatewayCrash{At: c.At, Gateway: gw, RebootSec: c.Reboot})
		}
	}
	for _, o := range f.Outages {
		width := min(max(int(math.Round(o.Frac*float64(nGW))), 1), nGW)
		from := r.Intn(nGW - width + 1)
		plan.Outages = append(plan.Outages, sim.OutageWindow{
			Start: o.Start, DurationSec: o.Duration, FromGW: from, ToGW: from + width,
		})
	}
	return plan
}
