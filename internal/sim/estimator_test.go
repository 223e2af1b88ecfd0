package sim

import (
	"reflect"
	"testing"
)

// estimatorFed counts the gateways whose estimator still shows an SN
// observation at the end of the run: primed, or holding samples in its
// ring. The fields are unexported in package wifi, so the probe reads them
// through reflection rather than widening the estimator's API for a test.
func estimatorFed(t *testing.T, s *sim) int {
	t.Helper()
	fed := 0
	for i := range s.gws {
		v := reflect.ValueOf(s.gws[i].est).Elem()
		primed, count := v.FieldByName("primed"), v.FieldByName("count")
		if !primed.IsValid() || !count.IsValid() {
			t.Fatal("wifi.LoadEstimator no longer has primed/count fields; update the probe")
		}
		if primed.Bool() || count.Int() > 0 {
			fed++
		}
	}
	return fed
}

// TestEstimatorFedOnlyForBH2 pins the estimator gate: only the BH² schemes
// read the gateways' load estimators, so no other scheme may pay for
// observing them — not in the serial tick, not in the sharded tick prep,
// and not in the wake-time catch-up.
func TestEstimatorFedOnlyForBH2(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	simFor := func(sc Scheme, shards int) *sim {
		t.Helper()
		cfg, err := Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 9, K: 2, Shards: shards}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.run()
		return s
	}
	for _, shards := range []int{1, 2} {
		for _, sc := range []Scheme{NoSleep, SoI, SoIKSwitch, SoIFullSwitch, Optimal, Centralized} {
			if n := estimatorFed(t, simFor(sc, shards)); n != 0 {
				t.Errorf("%v (shards=%d): %d gateway estimators fed, want 0", sc, shards, n)
			}
		}
		if n := estimatorFed(t, simFor(BH2KSwitch, shards)); n == 0 {
			t.Errorf("BH2+k-switch (shards=%d): no gateway estimator fed", shards)
		}
	}
}
