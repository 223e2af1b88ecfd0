package oracle

import (
	"testing"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
)

// TestMutationIsCaught is the harness's own smoke detector: a deliberate
// off-by-one in the reference's scheme semantics (idle timeout skewed by
// one second) must produce diffs against the engine on a spec where the
// unmutated reference matches exactly. If this fails, the oracle's
// comparison has gone soft and TestReferenceMatchesEngine proves nothing.
func TestMutationIsCaught(t *testing.T) {
	r := stats.NewRNG(0x5eed, 0x7e57)
	for i := 0; i < 20; i++ {
		sp := dsl.TinySpec(r)
		seed := int64(1 + r.Intn(1<<20))
		cfg, err := campaign.CellConfig(sp, seed, sim.SoI)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := reference(cfg, mutation{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(clean, res); len(d) != 0 {
			t.Fatalf("clean reference diverged on spec %d: %v", i, d)
		}
		mutated, err := reference(cfg, mutation{idleSkew: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(mutated, res); len(d) != 0 {
			return // the skew changed observable behavior and was caught
		}
		// A trace can be too quiet for a 1 s idle skew to matter (e.g. the
		// gateway never wakes); try the next spec.
	}
	t.Fatal("idle-timeout mutation went undetected across 20 specs")
}
