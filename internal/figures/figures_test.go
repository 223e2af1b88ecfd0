package figures

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// tinyDay builds a reduced scenario and runs a subset of schemes so figure
// reductions can be tested quickly.
func tinyDay(t *testing.T) *DayRuns {
	t.Helper()
	var busy trace.Profile
	for i := range busy {
		busy[i] = 0.5
	}
	tr, err := trace.Generate(trace.Config{
		Clients: 40, APs: 8, Profile: busy, Seed: 3, Duration: 3 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.OverlapGraph(8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := RunDay(sim.Config{Trace: tr, Topo: tp, Seed: 3}, []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch, sim.BH2NoBackup})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestNewScenario pins the spec-built evaluation scenario to its direct
// construction: the §5.1 office trace (trace.DefaultSimConfig) over a
// 40-gateway overlap graph with 5.6 networks in range, on the paper's
// shelf with k = 4.
func TestNewScenario(t *testing.T) {
	const seed = 1
	cfg, err := NewScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.DefaultSimConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.OverlapGraph(40, 5.6, seed)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Cfg.Clients != 272 || cfg.Topo.NumGateways != 40 {
		t.Errorf("scenario shape: %d clients, %d gateways", cfg.Trace.Cfg.Clients, cfg.Topo.NumGateways)
	}
	if !reflect.DeepEqual(cfg.Trace.Flows, tr.Flows) || !reflect.DeepEqual(cfg.Trace.Keepalives, tr.Keepalives) {
		t.Error("trace flows or keepalives differ from trace.DefaultSimConfig")
	}
	if !reflect.DeepEqual(cfg.Trace.ClientAP, tr.ClientAP) {
		t.Error("client homes differ from trace.DefaultSimConfig")
	}
	if !reflect.DeepEqual(cfg.Topo, tp) {
		t.Error("topology differs from OverlapGraph(40, 5.6) + FromOverlap")
	}
	if cfg.Seed != seed || cfg.DSLAM != dsl.EvalDSLAM || cfg.K != 4 || !cfg.Failures.Empty() {
		t.Errorf("config: seed %d, shelf %+v, k %d, failures %+v", cfg.Seed, cfg.DSLAM, cfg.K, cfg.Failures)
	}
}

func TestFig2Series(t *testing.T) {
	series, err := Fig2(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.X) != 24 || len(s.Y) != 24 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Y))
		}
	}
}

func TestFig3And4(t *testing.T) {
	s, err := Fig3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Y) != 24 {
		t.Fatal("Fig3 not hourly")
	}
	labels, fracs, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 24 || len(fracs) != 24 {
		t.Fatalf("Fig4 bins: %d/%d", len(labels), len(fracs))
	}
	if labels[len(labels)-1] != ">60" {
		t.Errorf("last label = %q", labels[len(labels)-1])
	}
	var sum float64
	for _, f := range fracs {
		sum += f
	}
	if sum < 99 || sum > 101 {
		t.Errorf("fractions sum to %v%%, want ~100", sum)
	}
}

func TestFig5Anchors(t *testing.T) {
	series, err := Fig5(24, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	// 8-switch (index 2) card 1 ≈ 0.91 at p=0.5; entries beyond k are 0.
	if series[2].Y[0] < 0.85 {
		t.Errorf("8-switch card1 = %v", series[2].Y[0])
	}
	if series[0].Y[4] != 0 {
		t.Errorf("2-switch card5 = %v, want 0 (beyond k)", series[0].Y[4])
	}
}

func TestDayFigureReductions(t *testing.T) {
	runs := tinyDay(t)

	f6 := Fig6(runs)
	if len(f6) < 2 {
		t.Fatalf("Fig6 series: %d", len(f6))
	}
	for _, s := range f6 {
		if len(s.Y) != 24 {
			t.Fatalf("%s not hourly", s.Name)
		}
		for _, y := range s.Y {
			if y < -5 || y > 100 {
				t.Fatalf("%s savings %v out of range", s.Name, y)
			}
		}
	}

	f7 := Fig7(runs)
	for _, s := range f7 {
		for _, y := range s.Y {
			if y < 0 || y > 8 {
				t.Fatalf("%s online gateways %v out of [0,8]", s.Name, y)
			}
		}
	}

	f8 := Fig8(runs)
	for _, s := range f8 {
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				t.Fatalf("%s ISP share %v out of range", s.Name, y)
			}
		}
	}

	for _, s := range Fig9a(runs) {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev-1e-9 || y < 0 || y > 1 {
				t.Fatalf("%s CDF not monotone in [0,1]", s.Name)
			}
			prev = y
		}
	}
	for _, s := range Fig9b(runs) {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev-1e-9 {
				t.Fatalf("%s CDF not monotone", s.Name)
			}
			prev = y
		}
	}

	table := LineCardTable(runs)
	if table[sim.SoI.String()] <= 0 {
		t.Error("line card table empty")
	}

	h := Summarize(runs)
	if h.Savings[sim.BH2KSwitch.String()] <= 0 {
		t.Error("no BH2 savings in headline")
	}
	if h.UserShare+h.ISPShare < 0.99 || h.UserShare+h.ISPShare > 1.01 {
		t.Errorf("shares don't sum to 1: %v + %v", h.UserShare, h.ISPShare)
	}
	if h.WorldTWh <= 0 {
		t.Error("no extrapolation")
	}
}

func TestHourlyShortSeries(t *testing.T) {
	// Fewer bins than hours: every bin must still land in its own hour
	// instead of vanishing into empty windows (per == 0 regression).
	got := hourly(func(i int) float64 { return float64(i + 1) }, 12)
	if len(got) != 24 {
		t.Fatalf("hourly returned %d bins", len(got))
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if want := 1.0 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10 + 11 + 12; sum != float64(want) {
		t.Errorf("short series lost samples: hourly sums to %v, want %v", sum, want)
	}
	// bin 0 maps to hour 0, bin 11 to hour 22.
	if got[0] != 1 || got[22] != 12 {
		t.Errorf("short-series binning off: hour0=%v hour22=%v", got[0], got[22])
	}
	if out := hourly(func(i int) float64 { return 1 }, 0); len(out) != 24 {
		t.Errorf("zero-bin series: %d hours", len(out))
	}
	// The common divisible case is unchanged: 48 bins -> 2 per hour.
	got = hourly(func(i int) float64 { return float64(i / 2) }, 48)
	for h, v := range got {
		if v != float64(h) {
			t.Fatalf("hour %d mean = %v, want %d", h, v, h)
		}
	}
}

func TestRunDayWorkerInvariance(t *testing.T) {
	var busy trace.Profile
	for i := range busy {
		busy[i] = 0.5
	}
	tr, err := trace.Generate(trace.Config{
		Clients: 40, APs: 8, Profile: busy, Seed: 4, Duration: 2 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.OverlapGraph(8, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Config{Trace: tr, Topo: tp, Seed: 4}
	schemes := []sim.Scheme{sim.NoSleep, sim.SoI, sim.BH2KSwitch}
	serial, err := RunDayWorkers(sc, schemes, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunDayWorkers(sc, schemes, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		a, b := serial.Results[s], parallel.Results[s]
		if a == nil || b == nil {
			t.Fatalf("%v missing from runs", s)
		}
		if a.Energy != b.Energy || a.Wakeups != b.Wakeups || a.Moves != b.Moves {
			t.Errorf("%v differs between 1 and 4 workers: %+v vs %+v", s, a.Energy, b.Energy)
		}
		for i := range a.FCT {
			af, bf := a.FCT[i], b.FCT[i]
			if (af != bf) && !(af != af && bf != bf) { // NaN-tolerant compare
				t.Fatalf("%v FCT[%d]: %v vs %v", s, i, af, bf)
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	series, err := Fig15(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Y) != 14 {
		t.Fatalf("Fig15 shape: %d series", len(series))
	}
	for _, sd := range series[1].Y {
		if sd < 15 || sd > 32 {
			t.Errorf("card sigma %v outside the one-mile band", sd)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	series := []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{1, 3}, Y: []float64{5, 7}, Err: []float64{0.5, 0.7}},
	}
	if err := WriteSeriesCSV(&buf, "x", series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "x,a,b,b-stddev\n") {
		t.Errorf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + x=1,2,3
		t.Fatalf("lines: %v", lines)
	}
	// x=2 has no b sample: trailing blanks.
	if !strings.Contains(lines[2], "2,20,,") {
		t.Errorf("row for x=2: %q", lines[2])
	}
}

func TestWriteHistogramCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHistogramCSV(&buf, []string{"0-1", ">60"}, []float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ">60,0.2") {
		t.Errorf("histogram CSV: %q", buf.String())
	}
}

func TestRenderASCII(t *testing.T) {
	s := Series{Name: "demo", X: []float64{0, 1}, Y: []float64{1, 2}}
	out := RenderASCII(s, 10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "##########") {
		t.Errorf("ascii: %q", out)
	}
	if got := RenderASCII(Series{Name: "empty"}, 10); !strings.Contains(got, "empty") {
		t.Errorf("empty ascii: %q", got)
	}
}

func TestFig9aWakeStallVsContention(t *testing.T) {
	runs := tinyDay(t)
	stall := Fig9a(runs)
	cont := Fig9aContention(runs)
	if len(stall) != len(cont) {
		t.Fatal("series count mismatch")
	}
	// Wake-stall accounting can only classify fewer flows as affected.
	for i := range stall {
		if stall[i].Y[0] < cont[i].Y[0]-1e-9 {
			t.Errorf("%s: stall-based unaffected %.3f below contention-based %.3f",
				stall[i].Name, stall[i].Y[0], cont[i].Y[0])
		}
	}
}
