package oracle

import (
	"fmt"
	"math"

	"insomnia/internal/power"
	"insomnia/internal/sim"
)

// bounds.go holds the oracle's non-exact legs: structural invariants that
// every failure-free run must satisfy — the only cross-check available
// for the coupled schemes (BH2*, optimal, centralized, RandomWake) — and
// the exact stationary expectation for full-switch card occupancy used by
// the analytic tests.

// relTol is the slack used where an invariant compares two independently
// ordered float sums (e.g. per-segment dt·W additions vs W·Σdt); the
// quantities are algebraically equal, so only rounding separates them.
const relTol = 1e-9

// Invariants checks a result against the scheme-independent laws of the
// model: unit availability without failures, on-times within [0, horizon],
// gateway energy = GatewayWatts · on-time, the shelf's constant draw as
// an ISP-energy floor, total energy at most the all-on ceiling, and FCT
// at least the backhaul serialization delay with stall a component of
// FCT. It returns one message per violation; empty means the run is
// consistent. Exactness is not claimed — use Reference for that on the
// four uncoupled schemes paramsFor covers.
func Invariants(cfg sim.Config, res *sim.Result) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	end := res.Duration
	if end <= 0 {
		return []string{fmt.Sprintf("non-positive duration %v", end)}
	}
	if res.Availability != 1 {
		add("availability %v on a failure-free run", res.Availability)
	}
	var onSum float64
	for g, on := range res.GatewayOnTime {
		if on < 0 || on > end*(1+relTol) {
			add("gateway %d on-time %v outside [0, %v]", g, on, end)
		}
		onSum += on
	}
	// Each gateway's joules are per-segment dt·GatewayWatts sums; comparing
	// against GatewayWatts·Σdt reorders the floats, hence relTol.
	if wantUser := power.GatewayWatts * onSum; math.Abs(res.Energy.UserJ-wantUser) > relTol*(wantUser+1) {
		add("user energy %v != %v W x %v s gateway on-time", res.Energy.UserJ, float64(power.GatewayWatts), onSum)
	}
	for cd, on := range res.CardOnTime {
		if on < 0 || on > end*(1+relTol) {
			add("card %d on-time %v outside [0, %v]", cd, on, end)
		}
	}
	if floor := power.ShelfWatts * end; res.Energy.ISPJ < floor*(1-relTol) {
		add("ISP energy %v below the always-on shelf floor %v", res.Energy.ISPJ, floor)
	}
	nGW := float64(len(res.GatewayOnTime))
	ceiling := (power.GatewayWatts+power.ISPModemWatts)*nGW*end +
		power.LineCardWatts*float64(len(res.CardOnTime))*end +
		power.ShelfWatts*end
	if total := res.Energy.UserJ + res.Energy.ISPJ; total > ceiling*(1+relTol) {
		add("total energy %v above the all-on ceiling %v", total, ceiling)
	}
	if res.Wakeups < 0 {
		add("negative wakeup count %d", res.Wakeups)
	}
	if res.Scheme == sim.NoSleep && res.Wakeups != 0 {
		add("no-sleep run recorded %d wakeups", res.Wakeups)
	}
	byteRate := cfg.Trace.Cfg.BackhaulBps / 8 // max service bytes/s of any flow
	for i, fct := range res.FCT {
		if math.IsNaN(fct) {
			continue
		}
		f := cfg.Trace.Flows[i]
		// A flow finishes once under a byte remains, after at least
		// (Bytes-1)/byteRate seconds of service (clock floor 1e-9).
		min := (float64(f.Bytes) - 1) / byteRate
		if min < 1e-9 {
			min = 1e-9
		}
		if fct < min*(1-relTol) {
			add("flow %d FCT %v below serialization bound %v", i, fct, min)
		}
		if st := res.FlowStall[i]; st < 0 || st > fct*(1+relTol) {
			add("flow %d stall %v outside [0, FCT=%v]", i, st, fct)
		}
	}
	return bad
}

// FullSwitchExpectedAwakeCards returns the expected number of awake cards
// of an n-line, m-ports-per-card shelf behind an ideal full switch when
// each line is independently active with probability p: the repack rule
// occupies exactly ceil(A/m) cards for A active lines, and A is
// Binomial(n, p), so E[awake] = Σ_a P(A=a)·ceil(a/m). This is the exact
// stationary counterpart of analytic.FullSwitchSleepingCards's floor
// bound, used by the Poisson analytic leg (TestAnalyticFullSwitchCards).
func FullSwitchExpectedAwakeCards(n, m int, p float64) (float64, error) {
	if n < 1 || m < 1 {
		return 0, fmt.Errorf("oracle: invalid n=%d m=%d", n, m)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("oracle: probability p=%v outside [0,1]", p)
	}
	// Binomial pmf built by the Pascal recurrence to stay exact-ish for
	// the small n (tens of lines) this is used with.
	pmf := make([]float64, n+1)
	pmf[0] = 1
	for line := 0; line < n; line++ {
		for a := line + 1; a > 0; a-- {
			pmf[a] = pmf[a]*(1-p) + pmf[a-1]*p
		}
		pmf[0] *= 1 - p
	}
	var e float64
	for a := 0; a <= n; a++ {
		e += pmf[a] * float64((a+m-1)/m)
	}
	return e, nil
}
