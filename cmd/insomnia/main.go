// Command insomnia runs one scheme over the evaluation scenario and prints
// its energy and device metrics — the quick way to poke at the simulator.
// The flags fill a one-cell campaign spec (office profile, overlap
// topology) and the run simulates exactly that cell's sim.Config;
// -scheme takes the canonical scheme names of campaign specs.
//
// Usage:
//
//	insomnia [-scheme BH2+k-switch] [-seed 1] [-clients 272] [-gateways 40]
//	         [-density 5.6] [-low 0.1] [-high 0.5] [-backup 1] [-csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"insomnia/internal/bh2"
	"insomnia/internal/campaign"
	"insomnia/internal/cli"
	"insomnia/internal/dsl"
	"insomnia/internal/perf"
	"insomnia/internal/sim"
	"insomnia/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insomnia: ")
	schemeName := flag.String("scheme", sim.BH2KSwitch.String(), "scheme: "+strings.Join(dsl.SchemeNames, "|"))
	seed := flag.Int64("seed", 1, "RNG seed")
	clients := flag.Int("clients", 272, "number of terminal devices")
	gateways := flag.Int("gateways", 40, "number of gateways")
	density := flag.Float64("density", topology.DefaultMeanInRange, "mean gateways in range per client")
	low := flag.Float64("low", 0.10, "BH2 low threshold")
	high := flag.Float64("high", 0.50, "BH2 high threshold")
	backup := flag.Int("backup", 1, "BH2 backup gateways")
	csvOut := flag.Bool("csv", false, "emit hourly CSV instead of a summary")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file at exit")
	flag.Parse()
	if err := cli.RejectArgs("insomnia", flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	scheme, err := campaign.SchemeByName(*schemeName)
	if err != nil {
		log.Fatalf("%v (known: %s)", err, strings.Join(dsl.SchemeNames, ", "))
	}

	// cleanup is idempotent: deferred for the normal path, called
	// explicitly before Fatal (which skips defers) so profiles are always
	// finalized.
	cleanup, err := perf.Profile(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	if err := run(options{
		scheme: scheme, seed: *seed,
		clients: *clients, gateways: *gateways, density: *density,
		low: *low, high: *high, backup: *backup, csv: *csvOut,
	}); err != nil {
		cleanup()
		log.Fatal(err)
	}
}

// options mirrors the flag set so run's call site names every value —
// adjacent same-typed parameters (density/low/high) transpose too easily
// positionally.
type options struct {
	scheme            sim.Scheme
	seed              int64
	clients, gateways int
	density           float64
	low, high         float64
	backup            int
	csv               bool
}

func run(o options) error {
	spec := dsl.Spec{
		Schemes:  []string{o.scheme.String()},
		Seeds:    []int64{o.seed},
		Trace:    dsl.TraceSpec{Profile: "office", Clients: o.clients, Gateways: o.gateways},
		Topology: dsl.TopoSpec{Kind: "overlap", MeanInRange: o.density},
	}
	cfg, err := campaign.CellConfig(spec, o.seed, o.scheme)
	if err != nil {
		return err
	}
	tr := cfg.Trace
	off := cfg
	off.Scheme = sim.NoSleep
	cfg.BH2 = bh2.DefaultParams()
	cfg.BH2.Low, cfg.BH2.High, cfg.BH2.Backup = o.low, o.high, o.backup

	base, err := sim.Run(off)
	if err != nil {
		return err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	if o.csv {
		sav := sim.SavingsSeries(res, base)
		fmt.Println("hour,savings_pct,online_gateways,online_cards")
		bins := res.OnlineGWs.Bins()
		per := bins / 24
		for h := 0; h < 24; h++ {
			var s, gws, cards float64
			for i := h * per; i < (h+1)*per; i++ {
				s += sav[i] * 100
				gws += res.OnlineGWs.MeanAt(i)
				cards += res.OnlineCards.MeanAt(i)
			}
			n := float64(per)
			fmt.Printf("%d,%.2f,%.2f,%.2f\n", h, s/n, gws/n, cards/n)
		}
		return nil
	}

	fmt.Printf("scheme:            %v\n", o.scheme)
	fmt.Printf("trace:             %d flows, %d keepalives over %d clients / %d gateways\n",
		len(tr.Flows), len(tr.Keepalives), o.clients, o.gateways)
	fmt.Printf("energy:            %.1f kWh (no-sleep %.1f kWh)\n",
		res.Energy.Total()/3.6e6, base.Energy.Total()/3.6e6)
	fmt.Printf("savings:           %.1f%%\n", res.SavingsVs(base)*100)
	fmt.Printf("ISP share:         %.0f%% of savings\n", res.Energy.ISPShareOfSavings(base.Energy)*100)
	fmt.Printf("online gateways:   %.1f peak (15-17h), %.1f night (3-5h)\n",
		sim.MeanOver(res.OnlineGWs, 15, 17), sim.MeanOver(res.OnlineGWs, 3, 5))
	fmt.Printf("online line cards: %.2f peak hours (11-19h)\n", sim.MeanOver(res.OnlineCards, 11, 19))
	fmt.Printf("gateway wakeups:   %d\n", res.Wakeups)
	if res.Moves > 0 {
		fmt.Printf("BH2 moves:         %d\n", res.Moves)
	}
	if res.Resolves > 0 {
		fmt.Printf("ILP resolves:      %d (%d hit the node budget)\n", res.Resolves, res.OptGap)
	}
	return nil
}
