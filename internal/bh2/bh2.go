// Package bh2 implements Broadband Hitch-Hiking (§3), the paper's primary
// contribution: a distributed heuristic that runs on each user terminal and
// aggregates light traffic onto few gateways so the rest can sleep.
//
// The decision rule (§3.1) is evaluated independently by every terminal on
// its own period (150 s with a random offset, §5.1) using passively
// estimated gateway loads (package wifi):
//
//	Connected to home: if home's load < low, find in-range remote gateways
//	with low < load < high (awake, not about to sleep, not saturated). If
//	there are more than `backup` of them, move to one chosen randomly with
//	probability proportional to its load.
//
//	Connected to a remote: if the remote's load < low, look for another
//	candidate the same way; with enough candidates move (load-proportional),
//	otherwise return home (waking it if needed). If the remote's load > high,
//	return home immediately.
//
// The randomness desynchronizes terminals; load-proportional choice herds
// hitch-hikers toward already-busy gateways, which is what empties the
// others. Decide is pure: all inputs are explicit, so the simulator, the
// live testbed and the unit tests share the exact same logic.
package bh2

import (
	"fmt"
	"math/rand"

	"insomnia/internal/stats"
)

// Params are the tunables of §5.1's sensitivity analysis.
type Params struct {
	Low        float64 // low load threshold (0.10)
	High       float64 // high load threshold (0.50)
	Backup     int     // minimum spare gateways for smooth hand-off (1)
	PeriodSec  float64 // decision period (150 s)
	JitterSec  float64 // random offset added per terminal per round
	EstWindow  float64 // load estimation window (60 s)
	WakeUpHome bool    // wake the home gateway when returning to it
}

// DefaultParams are the values the paper selected after sensitivity
// analysis (§5.1).
func DefaultParams() Params {
	return Params{
		Low: 0.10, High: 0.50, Backup: 1,
		PeriodSec: 150, JitterSec: 30, EstWindow: 60,
		WakeUpHome: true,
	}
}

// Validate rejects malformed parameter sets.
func (p Params) Validate() error {
	if !(p.Low >= 0 && p.Low < p.High && p.High <= 1) {
		return fmt.Errorf("bh2: need 0 <= low < high <= 1, got %v/%v", p.Low, p.High)
	}
	if p.Backup < 0 {
		return fmt.Errorf("bh2: negative backup %d", p.Backup)
	}
	if p.PeriodSec <= 0 || p.EstWindow <= 0 {
		return fmt.Errorf("bh2: non-positive period/window")
	}
	return nil
}

// GatewayView is what a terminal knows about one in-range gateway at
// decision time: everything here is passively observable (§3.2).
type GatewayView struct {
	ID    int
	Load  float64 // estimated backhaul utilization over EstWindow
	Awake bool    // beacons seen => awake (sleeping gateways send nothing)
	// Active reports whether the gateway transmitted any data frames during
	// the estimation window (non-zero SN delta). A gateway with recent
	// traffic cannot be "a candidate for going to sleep" — its clients'
	// continuous light traffic keeps resetting the SoI idle timer — even
	// when its byte load sits below the low threshold. This activity test
	// is how our implementation realizes §3.1's "not candidates for going
	// to sleep" (see the package comment).
	Active bool
}

// Action is the outcome of one decision.
type Action int

// Decision outcomes.
const (
	Stay       Action = iota // keep the current gateway
	Move                     // associate with Target
	ReturnHome               // go back to the home gateway, waking it if needed
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Stay:
		return "stay"
	case Move:
		return "move"
	case ReturnHome:
		return "return-home"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Reason explains a decision, mostly for diagnostics and the evaluation's
// oscillation analysis (§5.1 tuned thresholds to minimize wake-causing
// returns).
type Reason int

// Decision reasons.
const (
	HomeBusy        Reason = iota // home load >= low: stay and carry it
	NoCandidates                  // not enough candidates to move
	Hitched                       // moved to a remote gateway
	RemoteHealthy                 // remote in band: stay
	RemoteSaturated               // remote load > high: return home
	RemoteVanished                // remote asleep/unreachable: return home
	RemoteDraining                // remote below low, no alternates: return home
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case HomeBusy:
		return "home-busy"
	case NoCandidates:
		return "no-candidates"
	case Hitched:
		return "hitched"
	case RemoteHealthy:
		return "remote-healthy"
	case RemoteSaturated:
		return "remote-saturated"
	case RemoteVanished:
		return "remote-vanished"
	case RemoteDraining:
		return "remote-draining"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Decision carries the action and, for Move, the chosen gateway.
type Decision struct {
	Action Action
	Target int // gateway ID, valid when Action == Move
	Reason Reason
}

// Decide runs one round of the §3.1 algorithm for a terminal.
//
// home is the terminal's home gateway ID, current its present association
// (current == home means "connected to its home gateway"), views the
// in-range gateways (must include current when it is awake; need not
// include sleeping gateways — they are invisible). The RNG drives the
// load-proportional candidate choice.
func Decide(r *rand.Rand, p Params, home, current int, views []GatewayView) Decision {
	cur, curSeen := find(views, current)
	// Candidate sets fit this stack buffer for any realistic neighborhood,
	// so a decision allocates nothing; larger ones spill to the heap.
	var buf [smallSet]GatewayView

	if current == home {
		// Home case: only consider hitch-hiking when home is so lightly
		// loaded that it is a candidate for sleeping.
		if curSeen && cur.Load >= p.Low {
			return Decision{Action: Stay, Reason: HomeBusy}
		}
		cands := candidates(buf[:0], views, p, home, current)
		if len(cands) > p.Backup {
			return Decision{Action: Move, Target: pick(r, cands), Reason: Hitched}
		}
		return Decision{Action: Stay, Reason: NoCandidates}
	}

	// Remote case.
	if !curSeen {
		// The remote gateway vanished (slept or out of range). A terminal
		// scans before it resorts to waking its home gateway: if enough
		// candidates beacon in range it hitches onto one instead.
		cands := candidates(buf[:0], views, p, home, current)
		if len(cands) >= p.Backup+1 {
			return Decision{Action: Move, Target: pick(r, cands), Reason: Hitched}
		}
		return Decision{Action: ReturnHome, Reason: RemoteVanished}
	}
	if cur.Load > p.High {
		// Saturated remote: protect its owner's QoS, leave.
		return Decision{Action: ReturnHome, Reason: RemoteSaturated}
	}
	if cur.Load >= p.Low {
		return Decision{Action: Stay, Reason: RemoteHealthy}
	}
	// Remote load below low: consolidate onto a busier ride if one exists.
	cands := candidates(buf[:0], views, p, home, current)
	if len(cands) >= p.Backup+1 {
		return Decision{Action: Move, Target: pick(r, cands), Reason: Hitched}
	}
	if cur.Active {
		// The remote still carries traffic (ours included), so it is not
		// sleep-bound; bouncing home would wake a gateway for nothing.
		return Decision{Action: Stay, Reason: RemoteHealthy}
	}
	return Decision{Action: ReturnHome, Reason: RemoteDraining}
}

// candidates filters views to the §3.1 candidate set: awake, not the
// current association, not the home gateway, not saturated (load < high),
// and not about to sleep. "About to sleep" is decided by the activity test:
// a gateway whose load exceeds the low threshold OR that transmitted
// anything during the estimation window will not hit its idle timeout; one
// that has been completely silent will.
// The set is appended to out, which is returned.
func candidates(out, views []GatewayView, p Params, home, current int) []GatewayView {
	for _, v := range views {
		if !v.Awake || v.ID == current || v.ID == home {
			continue
		}
		if v.Load >= p.High {
			continue
		}
		if v.Load > p.Low || v.Active {
			out = append(out, v)
		}
	}
	return out
}

// pick selects a candidate with probability proportional to its load. A
// small floor keeps active-but-nearly-idle gateways selectable; the
// proportionality is what herds hitch-hikers onto already-busy gateways.
func pick(r *rand.Rand, cands []GatewayView) int {
	var buf [smallSet]float64
	w := buf[:0]
	for _, c := range cands {
		w = append(w, c.Load+0.01)
	}
	return cands[stats.WeightedChoice(r, w)].ID
}

// smallSet sizes Decide's and pick's stack buffers.
const smallSet = 16

func find(views []GatewayView, id int) (GatewayView, bool) {
	for _, v := range views {
		if v.ID == id {
			return v, v.Awake
		}
	}
	return GatewayView{}, false
}

// NextDecisionTime schedules the terminal's next run: now + period + a
// uniform jitter in [0, JitterSec) — the "random offset to prevent
// synchronizations" of §5.1.
func NextDecisionTime(r *rand.Rand, p Params, now float64) float64 {
	return now + p.PeriodSec + r.Float64()*p.JitterSec
}
