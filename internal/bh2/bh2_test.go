package bh2

import (
	"testing"

	"insomnia/internal/stats"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Low: 0.5, High: 0.1, PeriodSec: 1, EstWindow: 1},
		{Low: -0.1, High: 0.5, PeriodSec: 1, EstWindow: 1},
		{Low: 0.1, High: 1.5, PeriodSec: 1, EstWindow: 1},
		{Low: 0.1, High: 0.5, Backup: -1, PeriodSec: 1, EstWindow: 1},
		{Low: 0.1, High: 0.5, PeriodSec: 0, EstWindow: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestActionString(t *testing.T) {
	if Stay.String() != "stay" || Move.String() != "move" || ReturnHome.String() != "return-home" {
		t.Error("action strings")
	}
	if Action(9).String() != "Action(9)" {
		t.Error("unknown action string")
	}
}

func p0() Params {
	p := DefaultParams()
	p.Backup = 0 // most tests use no backup for clarity
	return p
}

func TestHomeBusyStays(t *testing.T) {
	r := stats.NewRNG(1, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.3, Awake: true}, // home, above low
		{ID: 1, Load: 0.3, Awake: true},
	}
	d := Decide(r, p0(), 0, 0, views)
	if d.Action != Stay {
		t.Errorf("busy home: %v, want stay", d.Action)
	}
}

func TestHomeIdleMovesToCandidate(t *testing.T) {
	r := stats.NewRNG(2, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true}, // home, below low
		{ID: 1, Load: 0.30, Awake: true}, // candidate
	}
	d := Decide(r, p0(), 0, 0, views)
	if d.Action != Move || d.Target != 1 {
		t.Errorf("got %+v, want move to 1", d)
	}
}

func TestHomeIdleNoCandidatesStays(t *testing.T) {
	r := stats.NewRNG(3, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},
		{ID: 1, Load: 0.05, Awake: true},  // below low: about to sleep, not a candidate
		{ID: 2, Load: 0.70, Awake: true},  // above high: saturated
		{ID: 3, Load: 0.30, Awake: false}, // asleep
	}
	d := Decide(r, p0(), 0, 0, views)
	if d.Action != Stay {
		t.Errorf("got %v, want stay (no candidates)", d.Action)
	}
}

func TestBackupRequirementBlocksMove(t *testing.T) {
	r := stats.NewRNG(4, 0)
	p := DefaultParams() // backup = 1
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},
		{ID: 1, Load: 0.30, Awake: true}, // only one candidate
	}
	d := Decide(r, p, 0, 0, views)
	if d.Action != Stay {
		t.Errorf("got %v, want stay (backup unmet)", d.Action)
	}
	// Two candidates satisfy backup=1.
	views = append(views, GatewayView{ID: 2, Load: 0.2, Awake: true})
	d = Decide(r, p, 0, 0, views)
	if d.Action != Move {
		t.Errorf("got %v, want move with 2 candidates", d.Action)
	}
}

func TestRemoteSaturatedReturnsHome(t *testing.T) {
	r := stats.NewRNG(5, 0)
	views := []GatewayView{
		{ID: 1, Load: 0.8, Awake: true}, // current remote, above high
		{ID: 2, Load: 0.3, Awake: true},
	}
	d := Decide(r, p0(), 0, 1, views)
	if d.Action != ReturnHome {
		t.Errorf("got %v, want return-home", d.Action)
	}
}

func TestRemoteHealthyStays(t *testing.T) {
	r := stats.NewRNG(6, 0)
	views := []GatewayView{
		{ID: 1, Load: 0.3, Awake: true},
		{ID: 2, Load: 0.4, Awake: true},
	}
	d := Decide(r, p0(), 0, 1, views)
	if d.Action != Stay {
		t.Errorf("got %v, want stay", d.Action)
	}
}

func TestRemoteIdleMovesToOtherCandidate(t *testing.T) {
	r := stats.NewRNG(7, 0)
	views := []GatewayView{
		{ID: 1, Load: 0.02, Awake: true}, // current remote about to sleep
		{ID: 2, Load: 0.30, Awake: true},
	}
	d := Decide(r, p0(), 0, 1, views)
	if d.Action != Move || d.Target != 2 {
		t.Errorf("got %+v, want move to 2", d)
	}
}

func TestRemoteIdleNoCandidatesReturnsHome(t *testing.T) {
	r := stats.NewRNG(8, 0)
	views := []GatewayView{
		{ID: 1, Load: 0.02, Awake: true},
	}
	d := Decide(r, p0(), 0, 1, views)
	if d.Action != ReturnHome {
		t.Errorf("got %v, want return-home", d.Action)
	}
}

func TestRemoteVanishedHitchesBeforeWakingHome(t *testing.T) {
	r := stats.NewRNG(9, 0)
	// Current gateway is gone but another candidate beacons: scan and
	// hitch instead of waking home.
	views := []GatewayView{
		{ID: 2, Load: 0.3, Awake: true},
	}
	d := Decide(r, p0(), 0, 1, views)
	if d.Action != Move || d.Target != 2 {
		t.Errorf("got %+v, want move to 2", d)
	}
	// No candidates at all: return home.
	d = Decide(r, p0(), 0, 1, nil)
	if d.Action != ReturnHome || d.Reason != RemoteVanished {
		t.Errorf("got %+v, want return-home (remote-vanished)", d)
	}
}

func TestHomeNeverOwnCandidate(t *testing.T) {
	// The home gateway must not be chosen as a "remote" candidate even when
	// its load is in the candidate band.
	r := stats.NewRNG(10, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.2, Awake: true}, // home in band — but user is AT a remote
		{ID: 1, Load: 0.05, Awake: true},
	}
	for i := 0; i < 50; i++ {
		d := Decide(r, p0(), 0, 1, views)
		if d.Action == Move && d.Target == 0 {
			t.Fatal("home chosen as hitch-hiking candidate")
		}
	}
}

func TestLoadProportionalSelection(t *testing.T) {
	r := stats.NewRNG(11, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},
		{ID: 1, Load: 0.45, Awake: true},
		{ID: 2, Load: 0.15, Awake: true},
	}
	counts := map[int]int{}
	for i := 0; i < 30000; i++ {
		d := Decide(r, p0(), 0, 0, views)
		if d.Action != Move {
			t.Fatal("expected move")
		}
		counts[d.Target]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("selection ratio = %v, want ~3 (load-proportional)", ratio)
	}
}

func TestSleepingGatewaysInvisible(t *testing.T) {
	r := stats.NewRNG(12, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},
		{ID: 1, Load: 0.30, Awake: false},
		{ID: 2, Load: 0.30, Awake: false},
		{ID: 3, Load: 0.30, Awake: false},
	}
	d := Decide(r, p0(), 0, 0, views)
	if d.Action != Stay {
		t.Errorf("moved to a sleeping gateway: %+v", d)
	}
}

func TestThresholdBoundariesExclusive(t *testing.T) {
	r := stats.NewRNG(13, 0)
	p := p0()
	// Loads exactly at the thresholds are not candidates.
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},
		{ID: 1, Load: p.Low, Awake: true},
		{ID: 2, Load: p.High, Awake: true},
	}
	d := Decide(r, p, 0, 0, views)
	if d.Action != Stay {
		t.Errorf("boundary load treated as candidate: %+v", d)
	}
}

func TestActiveGatewayIsCandidateBelowLow(t *testing.T) {
	r := stats.NewRNG(15, 0)
	// A gateway carrying other riders' light traffic shows Active=true but
	// a tiny byte load; it must still attract hitch-hikers (it cannot be
	// about to sleep).
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},                // home, idle
		{ID: 1, Load: 0.03, Awake: true, Active: true},  // small nucleus
		{ID: 2, Load: 0.01, Awake: true, Active: false}, // silent, sleep-bound
	}
	for i := 0; i < 50; i++ {
		d := Decide(r, p0(), 0, 0, views)
		if d.Action != Move {
			t.Fatalf("got %v, want move to the active gateway", d.Action)
		}
		if d.Target != 1 {
			t.Fatalf("moved to silent gateway %d", d.Target)
		}
	}
}

func TestSaturatedActiveGatewayNotCandidate(t *testing.T) {
	r := stats.NewRNG(16, 0)
	views := []GatewayView{
		{ID: 0, Load: 0.02, Awake: true},
		{ID: 1, Load: 0.9, Awake: true, Active: true}, // active but saturated
	}
	d := Decide(r, p0(), 0, 0, views)
	if d.Action != Stay {
		t.Errorf("got %+v, want stay (only candidate is saturated)", d)
	}
}

func TestRiderStaysOnActiveDrainingRemote(t *testing.T) {
	r := stats.NewRNG(17, 0)
	// Remote below low but still active (our own keepalives ride it) and no
	// alternates: stay rather than waking home.
	views := []GatewayView{
		{ID: 1, Load: 0.02, Awake: true, Active: true},
	}
	d := Decide(r, p0(), 0, 1, views)
	if d.Action != Stay {
		t.Errorf("got %+v, want stay on active remote", d)
	}
	// Same but the remote is silent: it will sleep, go home.
	views[0].Active = false
	d = Decide(r, p0(), 0, 1, views)
	if d.Action != ReturnHome || d.Reason != RemoteDraining {
		t.Errorf("got %+v, want return-home (remote-draining)", d)
	}
}

func TestReasonStrings(t *testing.T) {
	for _, r := range []Reason{HomeBusy, NoCandidates, Hitched, RemoteHealthy, RemoteSaturated, RemoteVanished, RemoteDraining} {
		if r.String() == "" || r.String()[0] == 'R' && r.String()[1] == 'e' && r.String() == "Reason(0)" {
			t.Errorf("bad reason string for %d", r)
		}
	}
	if Reason(99).String() != "Reason(99)" {
		t.Error("unknown reason string")
	}
}

func TestNextDecisionTimeJitter(t *testing.T) {
	r := stats.NewRNG(14, 0)
	p := DefaultParams()
	seen := map[bool]int{}
	for i := 0; i < 1000; i++ {
		next := NextDecisionTime(r, p, 100)
		if next < 100+p.PeriodSec || next >= 100+p.PeriodSec+p.JitterSec {
			t.Fatalf("next = %v outside [250, 280)", next)
		}
		seen[next > 100+p.PeriodSec+p.JitterSec/2]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Error("jitter not spread")
	}
}

// TestDecideDoesNotAllocate pins the zero-allocation contract of a
// decision: candidates and pick weights live in stack buffers for
// neighborhoods of up to 8 gateways, in every branch that builds a
// candidate set (idle home, vanished remote, draining remote).
func TestDecideDoesNotAllocate(t *testing.T) {
	r := stats.NewRNG(3, 0)
	p := DefaultParams()
	for n := 1; n <= 8; n++ {
		views := make([]GatewayView, n)
		for i := range views {
			views[i] = GatewayView{ID: i, Load: 0.05 * float64(i), Awake: true, Active: true}
		}
		for _, current := range []int{0, n - 1, n} { // home, remote, vanished remote
			allocs := testing.AllocsPerRun(100, func() {
				Decide(r, p, 0, current, views)
			})
			if allocs != 0 {
				t.Errorf("%d views, current %d: Decide allocates %.1f times, want 0", n, current, allocs)
			}
		}
	}
}

// TestDecideLargeNeighborhood covers candidate sets past the stack
// buffers: every candidate stays selectable.
func TestDecideLargeNeighborhood(t *testing.T) {
	r := stats.NewRNG(4, 0)
	views := []GatewayView{{ID: 0, Load: 0, Awake: true}}
	for id := 1; id <= 3*smallSet; id++ {
		views = append(views, GatewayView{ID: id, Load: 0.2, Awake: true})
	}
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		d := Decide(r, p0(), 0, 0, views)
		if d.Action != Move || d.Target < 1 || d.Target > 3*smallSet {
			t.Fatalf("decision %+v, want a move to one of the %d candidates", d, 3*smallSet)
		}
		seen[d.Target] = true
	}
	if len(seen) != 3*smallSet {
		t.Errorf("only %d of %d candidates ever picked", len(seen), 3*smallSet)
	}
}
