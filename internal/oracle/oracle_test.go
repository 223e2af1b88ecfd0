package oracle

import (
	"os"
	"strconv"
	"testing"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
)

// specCount returns the number of randomized tiny specs to cross-check
// per scheme: a short smoke by default (riding in the main `go test`
// run), raised via ORACLE_SPECS for the CI oracle job and local deep
// runs (ORACLE_SPECS=200 is the validated local depth).
func specCount(t *testing.T) int {
	t.Helper()
	n := 6
	if v := os.Getenv("ORACLE_SPECS"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			t.Fatalf("bad ORACLE_SPECS=%q: %v", v, err)
		}
		n = parsed
	}
	if testing.Short() {
		n = 2
	}
	return n
}

// exactSchemes are the reference interpreter's domain.
var exactSchemes = []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.SoIFullSwitch}

// TestReferenceMatchesEngine is the tentpole property: for randomized
// tiny specs, the straight-line reference interpreter and the event
// engine agree bit for bit — FCT, stalls, on-times, card on-times,
// energies, wakeup counts — at 1, 2 and 3 shards. Failures shrink by
// halving before reporting.
func TestReferenceMatchesEngine(t *testing.T) {
	n := specCount(t)
	for _, sc := range exactSchemes {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			r := stats.NewRNG(0x0eac1e+int64(sc), 0x7e57)
			for i := 0; i < n; i++ {
				sp := dsl.TinySpec(r)
				seed := int64(1 + r.Intn(1<<20))
				m, err := CheckSpec(sp, seed, sc, DefaultShards)
				if err != nil {
					t.Fatalf("spec %d: %v", i, err)
				}
				if m != nil {
					t.Fatalf("spec %d diverged; shrunk reproducer:\n%s", i, Shrink(m, DefaultShards))
				}
			}
		})
	}
}

// TestCoupledInvariants runs the coupled schemes — which have no exact
// reference — over randomized tiny specs and checks the structural
// invariants, plus scalar equality across shard counts (coupled schemes
// degrade to tick-parallel or serial execution but must stay
// byte-identical).
func TestCoupledInvariants(t *testing.T) {
	coupled := []sim.Scheme{sim.BH2KSwitch, sim.BH2FullSwitch, sim.BH2NoBackup, sim.Optimal, sim.Centralized}
	n := specCount(t)
	if n > 25 {
		n = 25 // BH2/Optimal runs are pricier; invariants need breadth, not depth
	}
	for _, sc := range coupled {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			r := stats.NewRNG(0xb0c0de+int64(sc), 0x7e57)
			for i := 0; i < n; i++ {
				sp := dsl.TinySpec(r)
				seed := int64(1 + r.Intn(1<<20))
				cfg, err := campaign.CellConfig(sp, seed, sc)
				if err != nil {
					t.Fatalf("spec %d: %v", i, err)
				}
				var first *sim.Result
				for _, shards := range DefaultShards {
					c := cfg
					c.Shards = shards
					res, err := sim.Run(c)
					if err != nil {
						t.Fatalf("spec %d shards=%d: %v", i, shards, err)
					}
					for _, bad := range Invariants(cfg, res) {
						t.Errorf("spec %d (seed %d) shards=%d: %s", i, seed, shards, bad)
					}
					if first == nil {
						first = res
						continue
					}
					if res.Energy != first.Energy || res.Wakeups != first.Wakeups {
						t.Errorf("spec %d (seed %d): shards=%d result differs from serial (energy %v vs %v, wakeups %d vs %d)",
							i, seed, shards, res.Energy, first.Energy, res.Wakeups, first.Wakeups)
					}
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}

// TestInvariantsHoldForExactSchemes pins that the invariant net also
// passes on the schemes the exact reference covers — the invariants must
// never be stricter than the engine's actual behavior.
func TestInvariantsHoldForExactSchemes(t *testing.T) {
	r := stats.NewRNG(0x1d1e, 0x7e57)
	sp := dsl.TinySpec(r)
	for _, sc := range exactSchemes {
		cfg, err := campaign.CellConfig(sp, 11, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range Invariants(cfg, res) {
			t.Errorf("%v: %s", sc, bad)
		}
	}
}

// TestReferenceRejectsOutOfDomain pins the reference's domain errors.
func TestReferenceRejectsOutOfDomain(t *testing.T) {
	r := stats.NewRNG(0xd0, 0x7e57)
	cfg, err := campaign.CellConfig(dsl.TinySpec(r), 3, sim.BH2KSwitch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reference(cfg); err == nil {
		t.Fatal("coupled scheme accepted by the exact reference")
	}
	cfg.Scheme = sim.SoI
	cfg.RandomWake = true
	if _, err := Reference(cfg); err == nil {
		t.Fatal("RandomWake accepted by the exact reference")
	}
}
