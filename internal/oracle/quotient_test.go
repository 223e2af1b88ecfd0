package oracle

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/trace"
)

// TestQuotientTriangulation closes the engine × quotient × reference
// triangle: for symmetric tiny specs that actually collapse, the full
// engine run, the collapsed engine run (expanded through its
// sim.QuotientPlan), and the exact reference must all agree bit for bit,
// at 1, 2 and 3 shards each. The reference interprets only the full
// scenario — agreement with the collapsed run proves the quotient
// expansion independently of the engine's own collapse test suite.
func TestQuotientTriangulation(t *testing.T) {
	r := stats.NewRNG(0x900d, 0x7e57)
	collapsed := 0
	attempts := 0
	for _, scheme := range []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIFullSwitch} {
		for i := 0; i < 8; i++ {
			sp := dsl.TinySpec(r)
			sp.Trace.Placement = "symmetric"
			seed := int64(1 + r.Intn(1<<20))
			attempts++

			qtr, qtp, plan, err := campaign.BuildCollapsedScenario(sp, seed)
			if err != nil {
				t.Fatalf("%v spec %d: %v", scheme, i, err)
			}
			if plan == nil {
				continue // nothing merged on this draw; symmetry is graph-dependent
			}
			collapsed++

			cfg, err := campaign.CellConfig(sp, seed, scheme)
			if err != nil {
				t.Fatalf("%v spec %d: %v", scheme, i, err)
			}
			exp, err := Reference(cfg)
			if err != nil {
				t.Fatalf("%v spec %d: %v", scheme, i, err)
			}
			// Full engine runs vs the reference.
			if diffs, err := checkAgainst(exp, cfg, DefaultShards); err != nil {
				t.Fatalf("%v spec %d: %v", scheme, i, err)
			} else if len(diffs) != 0 {
				t.Fatalf("%v spec %d (seed %d): full run diverged: %v", scheme, i, seed, diffs)
			}
			// Collapsed engine runs vs the same reference. The quotient
			// shelf stays full-sized, so the engine draws the full run's
			// port wiring from the same seed. The engine expands scalars and per-device
			// arrays back to the full shape, but leaves FCT/FlowStall in
			// quotient flow order — those compare as a weight-expanded
			// multiset instead.
			qcfg := cfg
			qcfg.Trace, qcfg.Topo, qcfg.Quotient = qtr, qtp, plan
			for _, shards := range DefaultShards {
				c := qcfg
				c.Shards = shards
				res, err := sim.Run(c)
				if err != nil {
					t.Fatalf("%v spec %d shards=%d: %v", scheme, i, shards, err)
				}
				scalars := *exp
				scalars.FCT, scalars.FlowStall = nil, nil
				flat := *res
				flat.FCT, flat.FlowStall = nil, nil
				diffs := Diff(&scalars, &flat)
				diffs = append(diffs, diffQuotientFlows(exp, res, qtr, plan)...)
				if len(diffs) != 0 {
					t.Fatalf("%v spec %d (seed %d) shards=%d: collapsed run diverged: %v", scheme, i, seed, shards, diffs)
				}
			}
		}
	}
	t.Logf("%d/%d symmetric specs collapsed", collapsed, attempts)
	if collapsed == 0 {
		t.Fatal("no spec collapsed: the triangulation never ran (draws are deterministic — adjust seeds)")
	}
}

// diffQuotientFlows compares a collapsed run's per-quotient-flow FCT and
// stall against the reference's full-scenario values: each quotient flow
// stands for its class weight's worth of identical full flows, so the
// weight-expanded (FCT, stall) multiset must equal the full one exactly.
func diffQuotientFlows(exp *Expected, res *sim.Result, qtr *trace.Trace, plan *sim.QuotientPlan) []string {
	weightOf := make(map[int]int) // quotient gateway -> class size
	for _, q := range plan.FullHome {
		weightOf[int(q)]++
	}
	type pair struct{ fct, stall float64 }
	var got []pair
	gotNaN := 0
	for i := range res.FCT {
		w := weightOf[qtr.ClientAP[qtr.Flows[i].Client]]
		for k := 0; k < w; k++ {
			if math.IsNaN(res.FCT[i]) {
				gotNaN++
			} else {
				got = append(got, pair{res.FCT[i], res.FlowStall[i]})
			}
		}
	}
	var want []pair
	wantNaN := 0
	for i := range exp.FCT {
		if math.IsNaN(exp.FCT[i]) {
			wantNaN++
		} else {
			want = append(want, pair{exp.FCT[i], exp.FlowStall[i]})
		}
	}
	if gotNaN != wantNaN || len(got) != len(want) {
		return []string{fmt.Sprintf("flow multiset: want %d finished + %d unfinished, got %d + %d",
			len(want), wantNaN, len(got), gotNaN)}
	}
	less := func(s []pair) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].fct != s[j].fct {
				return s[i].fct < s[j].fct
			}
			return s[i].stall < s[j].stall
		}
	}
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	var out []string
	for i := range want {
		if want[i] != got[i] {
			out = append(out, fmt.Sprintf("flow multiset[%d]: want (%.17g, %.17g) got (%.17g, %.17g)",
				i, want[i].fct, want[i].stall, got[i].fct, got[i].stall))
			if len(out) == 5 {
				break
			}
		}
	}
	return out
}
