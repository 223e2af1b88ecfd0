package main

import (
	"fmt"
	"strconv"
	"strings"
)

// scale picks the size of a workload's scenario: full is the benchmark,
// tiny keeps the same shape at a size the self-test runs in seconds.
type scale int

const (
	full scale = iota
	tiny
)

// workload is one campaign the closed-loop client submits over and over.
type workload struct {
	name string
	// viaSimd routes the campaign through an in-process simd server over
	// loopback HTTP; otherwise the client calls campaign.Submit directly.
	viaSimd bool
	// spec renders the campaign spec for a seed. The spec alone decides
	// the simulated work: the program receives nothing else.
	spec func(seed int64, sc scale) string
}

var workloads = []workload{
	{name: "office-sweep", viaSimd: true, spec: officeSweep},
	{name: "metro-shuffled", spec: metroShuffled},
	{name: "metro-symmetric", spec: metroSymmetric},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// officeSweep is the office profile (272 clients, 40 gateways, one day)
// under five schemes and four consecutive seeds, with two gateway crashes
// and a 25% area outage, writing every artifact type.
func officeSweep(seed int64, sc scale) string {
	clients, gateways, duration := 272, 40, 86400
	crashAt, outageAt, outageFor := 30000, 50400, 3600
	if sc == tiny {
		clients, gateways, duration = 24, 8, 3600
		crashAt, outageAt, outageFor = 900, 1800, 600
	}
	return fmt.Sprintf(`name: office-sweep
schemes: [no-sleep, SoI, SoI+k-switch, SoI+full-switch, BH2+k-switch]
seeds: [%d, %d, %d, %d]
duration: %d
workers: 2
trace:
  profile: office
  clients: %d
  gateways: %d
failures:
  crashes:
    - at: %d
      count: 2
  outages:
    - start: %d
      duration: %d
      frac: 0.25
outputs: [summary, json, power]
`, seed, seed+1, seed+2, seed+3, duration, clients, gateways, crashAt, outageAt, outageFor)
}

// metroShuffled is the city-scale residential scenario (100k clients on
// 10k grid-city gateways, half an hour) on an explicit 212x48 shelf.
func metroShuffled(seed int64, sc scale) string {
	clients, gateways, duration, cards := 100000, 10000, 1800, 212
	if sc == tiny {
		clients, gateways, duration, cards = 2000, 200, 600, 8
	}
	return fmt.Sprintf(`name: metro-shuffled
schemes: [no-sleep, SoI, BH2+k-switch]
seeds: [%d]
duration: %d
workers: 1
trace:
  profile: residential
  clients: %d
  gateways: %d
topology:
  kind: grid-city
dslam:
  cards: %d
  ports_per_card: 48
outputs: [summary, json, power]
`, seed, duration, clients, gateways, cards)
}

// metroSymmetric is a symmetric city (20480 clients on a 32x32 grid of
// gateways, twelve hours) under 24 consecutive seeds. The grid collapses
// to three gateway classes, so only quotient scenarios are ever generated
// and simulated. With symmetric placement every gateway carries the same
// traffic, so one seed's cost is a single random draw that varies
// severalfold between seeds; summing 24 of them keeps the work per
// campaign within a few percent, and the grid is small enough for
// several campaigns to fit in one run.
func metroSymmetric(seed int64, sc scale) string {
	clients, gateways, duration, seeds := 20480, 1024, 43200, 24
	if sc == tiny {
		clients, gateways, duration, seeds = 2000, 100, 3600, 2
	}
	list := make([]string, seeds)
	for i := range list {
		list[i] = strconv.FormatInt(seed+int64(i), 10)
	}
	return fmt.Sprintf(`name: metro-symmetric
schemes: [no-sleep, SoI, SoI+full-switch]
seeds: [%s]
duration: %d
workers: 2
collapse: auto
trace:
  profile: residential
  clients: %d
  gateways: %d
  placement: symmetric
topology:
  kind: grid-city
  mean_in_range: 4.5
outputs: [summary, json, power]
`, strings.Join(list, ", "), duration, clients, gateways)
}
