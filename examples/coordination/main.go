// Coordination: how much of the energy-saving margin does each level of
// coordination recover? Compares plain SoI (none), distributed BH²
// (neighbour gossip via passive observation), the §3.3-style centralized
// controller (global knowledge, physical constraints), and the idealized
// Optimal (global knowledge plus instant, disruption-free migration).
//
//	go run ./examples/coordination
package main

import (
	"fmt"
	"log"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
)

func main() {
	// The §5.1 office day: 272 clients on 40 gateways, 5.6 in range.
	spec := dsl.Spec{
		Schemes:  []string{"SoI", "BH2+k-switch", "centralized+k-switch", "optimal"},
		Seeds:    []int64{11},
		Trace:    dsl.TraceSpec{Profile: "office", Clients: 272, Gateways: 40},
		Topology: dsl.TopoSpec{Kind: "overlap", MeanInRange: 5.6},
	}
	cfg, err := campaign.CellConfig(spec, 11, sim.NoSleep)
	if err != nil {
		log.Fatal(err)
	}
	base, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("scheme                    savings   peak online gateways (11-19h)")
	for _, sch := range []sim.Scheme{sim.SoI, sim.BH2KSwitch, sim.Centralized, sim.Optimal} {
		cfg.Scheme = sch
		res, err := sim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-25s %5.1f%%    %.1f of %d\n",
			sch, res.SavingsVs(base)*100, sim.MeanOver(res.OnlineGWs, 11, 19), cfg.Topo.NumGateways)
	}
	fmt.Println("\nreading: the distributed heuristic needs no controller and no gateway")
	fmt.Println("changes; the centralized variant shows what coordination alone adds;")
	fmt.Println("Optimal adds physically-impossible instant migration on top.")
}
