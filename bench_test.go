// Package bench is the paper's evaluation harness: one benchmark per table
// and figure. Each benchmark regenerates its figure through the same
// internal/figures code the CLI uses and reports the headline values as
// benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction in one run. Day-simulation figures (6-9,
// line-card table, headline) share a single cached set of runs.
package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"insomnia/internal/analytic"
	"insomnia/internal/crosstalk"
	"insomnia/internal/dsl"
	"insomnia/internal/figures"
	"insomnia/internal/runner"
	"insomnia/internal/sim"
	"insomnia/internal/testbed"
	"insomnia/internal/trace"
)

var (
	dayOnce sync.Once
	dayRuns *figures.DayRuns
	dayErr  error
)

// day lazily runs the §5 scenario once for all day-based benchmarks. The
// eight schemes fan out through the experiment runner's worker pool
// (internal/runner), so the fixture costs roughly one Optimal run of
// wall-clock instead of the serial sum.
func day(b *testing.B) *figures.DayRuns {
	b.Helper()
	dayOnce.Do(func() {
		var base sim.Config
		base, dayErr = figures.NewScenario(1)
		if dayErr != nil {
			return
		}
		dayRuns, dayErr = figures.RunDay(base, nil)
	})
	if dayErr != nil {
		b.Fatal(dayErr)
	}
	return dayRuns
}

// BenchmarkSchemeComparisonSerial and ...Parallel measure the experiment
// runner itself: the same four-scheme comparison over one shared scenario,
// scheduled on 1 worker vs GOMAXPROCS workers. The per-scheme results are
// identical (runner_test.go proves it); only wall-clock differs.
func benchSchemeComparison(b *testing.B, workers int) {
	base := benchScenario(b)
	schemes := []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := runner.SchemeJobs(base, schemes)
		outs := (runner.Runner{Workers: workers}).Run(context.Background(), jobs)
		if err := runner.FirstErr(outs); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(outs[3].Result.SavingsVs(outs[0].Result)*100, "bh2k-savings-%")
	}
}

func BenchmarkSchemeComparisonSerial(b *testing.B)   { benchSchemeComparison(b, 1) }
func BenchmarkSchemeComparisonParallel(b *testing.B) { benchSchemeComparison(b, 0) }

func BenchmarkFig2_ResidentialUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig2(400, 1)
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, y := range series[0].Y {
			if y > peak {
				peak = y
			}
		}
		b.ReportMetric(peak, "peak-util-%")
	}
}

func BenchmarkFig3_APUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := figures.Fig3(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Y[16], "peak-hour-util-%")
	}
}

func BenchmarkFig4_GapHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.DefaultOfficeConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		h := tr.GapHistogram(16*3600, 17*3600)
		b.ReportMetric(h.FractionBelow(60)*100, "idle-below-60s-%")
	}
}

func BenchmarkFig5_SwitchSleepProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig5(24, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		// The 8-switch first-card probability is the figure's anchor.
		b.ReportMetric(series[2].Y[0], "k8-card1-sleep-prob")
	}
}

func BenchmarkFig6_EnergySavings(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		series := figures.Fig6(runs)
		for _, s := range series {
			if s.Name == sim.BH2KSwitch.String() {
				var peak float64
				for h := 11; h < 19; h++ {
					peak += s.Y[h]
				}
				b.ReportMetric(peak/8, "bh2k-peak-savings-%")
			}
		}
	}
}

func BenchmarkFig7_OnlineGateways(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig7(runs) {
			if s.Name == sim.BH2KSwitch.String() {
				var peak float64
				for h := 11; h < 19; h++ {
					peak += s.Y[h]
				}
				b.ReportMetric(peak/8, "bh2k-peak-online-gws")
			}
		}
	}
}

func BenchmarkFig8_ISPShare(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig8(runs) {
			if s.Name == sim.Optimal.String() {
				var mean float64
				for _, y := range s.Y {
					mean += y
				}
				b.ReportMetric(mean/float64(len(s.Y)), "optimal-isp-share-%")
			}
		}
	}
}

func BenchmarkFig9a_FCT(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig9a(runs) {
			if s.Name == sim.BH2KSwitch.String() {
				// Fraction of flows unaffected (<=0% increase); paper: ~98%.
				b.ReportMetric(s.Y[0]*100, "bh2k-flows-unaffected-%")
			}
		}
	}
}

func BenchmarkFig9b_Fairness(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig9b(runs) {
			if s.Name == sim.BH2KSwitch.String() {
				// Fraction of gateways whose online time dropped to zero
				// (x = -100); paper: ~25%.
				b.ReportMetric(s.Y[0]*100, "gateways-always-asleep-%")
			}
		}
	}
}

func BenchmarkFig10_DensitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := figures.Fig10(1, []float64{1, 2, 5.6, 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Y[1], "online-gws-at-density-2")
		b.ReportMetric(s.Y[2], "online-gws-at-density-5.6")
	}
}

func BenchmarkFig12_Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.Run(testbed.Config{UseBH2: true, Duration: 600, TimeScale: 0.002, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanSleeping, "bh2-sleeping-aps-of-9")
	}
}

func BenchmarkFig14_CrosstalkSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig14(1)
		if err != nil {
			b.Fatal(err)
		}
		// 62 Mbps fixed-600m series, half-off and 20-off anchors.
		s := series[1]
		b.ReportMetric(s.Y[6], "62M-600m-halfoff-speedup-%")
		b.ReportMetric(s.Y[len(s.Y)-1], "62M-600m-20off-speedup-%")
	}
}

func BenchmarkFig15_Attenuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig15(1)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, y := range series[1].Y {
			mean += y
		}
		b.ReportMetric(mean/float64(len(series[1].Y)), "mean-card-sigma-dB")
	}
}

func BenchmarkTableLineCards(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		t := figures.LineCardTable(runs)
		b.ReportMetric(t[sim.BH2KSwitch.String()], "bh2k-online-cards")
		b.ReportMetric(t[sim.Optimal.String()], "optimal-online-cards")
		b.ReportMetric(t[sim.SoI.String()], "soi-online-cards")
	}
}

func BenchmarkHeadlineSavings(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		h := figures.Summarize(runs)
		b.ReportMetric(h.Savings[sim.BH2KSwitch.String()]*100, "bh2k-savings-%")
		b.ReportMetric(h.OptimalMargin*100, "optimal-margin-%")
		b.ReportMetric(h.WorldTWh, "world-TWh-per-year")
	}
}

func BenchmarkSoIBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.DefaultOfficeConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		h := tr.GapHistogram(16*3600, 17*3600)
		bound := analytic.SoISavingsBound(h, trace.Fig4Edges(), 60, 0.92)
		b.ReportMetric(bound*100, "soi-peak-bound-%")
	}
}

// --- ablations of the schemes' design choices ---

// benchScenario is the evaluation scenario at seed 2; each benchmark
// copies it and sets the scheme (and any knob) it measures.
func benchScenario(b *testing.B) sim.Config {
	b.Helper()
	base, err := figures.NewScenario(2)
	if err != nil {
		b.Fatal(err)
	}
	return base
}

// run simulates base under scheme sc.
func run(b *testing.B, base sim.Config, sc sim.Scheme) *sim.Result {
	b.Helper()
	cfg := base
	cfg.Scheme = sc
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkAblationBackup(b *testing.B) {
	base := benchScenario(b)
	for i := 0; i < b.N; i++ {
		with := run(b, base, sim.BH2KSwitch)
		without := run(b, base, sim.BH2NoBackup)
		b.ReportMetric(sim.MeanOver(with.OnlineGWs, 11, 19), "backup1-online-gws")
		b.ReportMetric(sim.MeanOver(without.OnlineGWs, 11, 19), "backup0-online-gws")
	}
}

func BenchmarkAblationSwitch(b *testing.B) {
	base := benchScenario(b)
	for i := 0; i < b.N; i++ {
		for _, sch := range []sim.Scheme{sim.SoI, sim.SoIKSwitch, sim.SoIFullSwitch} {
			res := run(b, base, sch)
			b.ReportMetric(sim.MeanOver(res.OnlineCards, 11, 19), sch.String()+"-cards")
		}
	}
}

func BenchmarkAblationThresholds(b *testing.B) {
	base := benchScenario(b)
	for i := 0; i < b.N; i++ {
		for _, th := range []struct {
			name      string
			low, high float64
		}{
			{"paper-10-50", 0.10, 0.50},
			{"tight-05-30", 0.05, 0.30},
			{"loose-20-70", 0.20, 0.70},
		} {
			cfg := base
			cfg.BH2.Low, cfg.BH2.High = th.low, th.high
			cfg.BH2.Backup = 1
			cfg.BH2.PeriodSec, cfg.BH2.JitterSec, cfg.BH2.EstWindow = 150, 30, 60
			cfg.BH2.WakeUpHome = true
			res := run(b, cfg, sim.BH2KSwitch)
			b.ReportMetric(float64(res.Wakeups), th.name+"-wakeups")
		}
	}
}

func BenchmarkAblationPeriod(b *testing.B) {
	base := benchScenario(b)
	for i := 0; i < b.N; i++ {
		for _, period := range []float64{60, 150, 300} {
			cfg := base
			cfg.BH2.Low, cfg.BH2.High, cfg.BH2.Backup = 0.10, 0.50, 1
			cfg.BH2.PeriodSec, cfg.BH2.JitterSec, cfg.BH2.EstWindow = period, period/5, 60
			cfg.BH2.WakeUpHome = true
			res := run(b, cfg, sim.BH2KSwitch)
			b.ReportMetric(float64(res.Moves), "moves")
		}
	}
}

// BenchmarkAblationCentralized compares the §3.3 centralized-controller
// extension against distributed BH2 and the idealized Optimal.
func BenchmarkAblationCentralized(b *testing.B) {
	base := benchScenario(b)
	for i := 0; i < b.N; i++ {
		off := run(b, base, sim.NoSleep)
		cen := run(b, base, sim.Centralized)
		b.ReportMetric(cen.SavingsVs(off)*100, "centralized-savings-%")
		b.ReportMetric(sim.MeanOver(cen.OnlineGWs, 11, 19), "centralized-online-gws")
	}
}

// BenchmarkAblationWakeTime compares the constant 60 s wake against the
// measured distribution (up to 3 min resyncs).
func BenchmarkAblationWakeTime(b *testing.B) {
	base := benchScenario(b)
	randomWake := base
	randomWake.RandomWake = true
	for i := 0; i < b.N; i++ {
		fixed := run(b, base, sim.BH2KSwitch)
		random := run(b, randomWake, sim.BH2KSwitch)
		off := run(b, base, sim.NoSleep)
		b.ReportMetric(fixed.SavingsVs(off)*100, "fixed-wake-savings-%")
		b.ReportMetric(random.SavingsVs(off)*100, "random-wake-savings-%")
	}
}

// BenchmarkAblationKSize sweeps the switch size on an 8-card DSLAM.
func BenchmarkAblationKSize(b *testing.B) {
	base := benchScenario(b)
	base.DSLAM = dsl.DSLAM{Cards: 8, PortsPerCard: 6}
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 4, 8} {
			cfg := base
			cfg.K = k
			res := run(b, cfg, sim.BH2KSwitch)
			b.ReportMetric(sim.MeanOver(res.OnlineCards, 11, 19), fmt.Sprintf("k%d-online-cards", k))
		}
	}
}

// BenchmarkEnergyProportionality compares the sleeping margin against what
// ideal energy-proportional hardware would save (§2.2's alternative).
func BenchmarkEnergyProportionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.DefaultOfficeConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, u := range traceMeanUtil(tr) {
			mean += u
		}
		mean /= 24
		v, err := analytic.EnergyProportionalSavings(mean, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v*100, "proportional-hw-savings-%")
	}
}

func traceMeanUtil(tr *trace.Trace) []float64 {
	return trace.MeanUtilization(tr.UtilizationMatrix(false, 24))
}

// BenchmarkCrosstalkSyncRate measures the PHY model itself: one full-bundle
// sync-rate computation (24 lines, ~2900 tones).
func BenchmarkCrosstalkSyncRate(b *testing.B) {
	lengths := crosstalk.TelcoLengths(24, 1)
	sys, err := crosstalk.NewSystem(crosstalk.DefaultPHY(), crosstalk.NewBundle25(), lengths)
	if err != nil {
		b.Fatal(err)
	}
	active := make([]bool, 24)
	for i := range active {
		active[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SyncRate(i%24, active, crosstalk.Profile62)
	}
}

// BenchmarkSimulatorDay measures raw simulator throughput: one full
// simulated day of SoI over the evaluation scenario per iteration.
func BenchmarkSimulatorDay(b *testing.B) {
	base := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, base, sim.SoI)
	}
}
