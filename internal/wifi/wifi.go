// Package wifi models the 802.11 machinery BH² is built on (§3.2, §5.3):
//
//   - a virtualized wireless card that time-division-multiplexes one radio
//     across every gateway in range (FatVAP/THEMIS style): a 100 ms TDMA
//     period with 60% devoted to the selected gateway and the remainder
//     split evenly across the others for monitoring;
//   - passive load estimation by MAC Sequence Number (SN) counting: every
//     802.11 data frame a gateway sends carries a 12-bit SN, so two
//     observations of the counter bound the number of frames the gateway
//     transmitted in between — regardless of how briefly the observer
//     listened. Bytes are then estimated with an assumed mean frame size,
//     which is the estimator's real source of error.
package wifi

import "fmt"

// SNModulus is the 802.11 sequence number space (12 bits).
const SNModulus = 4096

// DefaultFrameBytes is the assumed mean data frame size used to convert
// frame counts to bytes.
const DefaultFrameBytes = 1500.0

// TDMA describes the virtual-card schedule of §5.3.
type TDMA struct {
	PeriodSec   float64 // full cycle length (0.1 s in the paper)
	ActiveShare float64 // fraction devoted to the selected gateway (0.6)
}

// DefaultTDMA is the deployed configuration: 100 ms period, 60% active
// slice — §5.3 verified 60% suffices to drain any gateway backhaul since
// wireless rates exceed ADSL speeds.
var DefaultTDMA = TDMA{PeriodSec: 0.1, ActiveShare: 0.6}

// ActiveSliceSec returns the per-period time on the selected gateway.
func (t TDMA) ActiveSliceSec() float64 { return t.PeriodSec * t.ActiveShare }

// MonitorSliceSec returns the per-period time spent on each of nOthers
// monitored gateways.
func (t TDMA) MonitorSliceSec(nOthers int) float64 {
	if nOthers <= 0 {
		return 0
	}
	return t.PeriodSec * (1 - t.ActiveShare) / float64(nOthers)
}

// EffectiveBps is the throughput available towards the selected gateway
// given the raw wireless link rate: the active share of it.
func (t TDMA) EffectiveBps(wirelessBps float64) float64 {
	return wirelessBps * t.ActiveShare
}

// SeqCounter is a gateway's 12-bit data-frame sequence counter.
type SeqCounter struct{ sn uint16 }

// Advance adds n transmitted frames.
func (c *SeqCounter) Advance(n int) {
	if n < 0 {
		panic(fmt.Sprintf("wifi: negative frame count %d", n))
	}
	c.sn = uint16((int(c.sn) + n) % SNModulus)
}

// Value returns the current sequence number.
func (c *SeqCounter) Value() uint16 { return c.sn }

// SeqDelta returns the number of frames sent between two observed sequence
// numbers, assuming fewer than SNModulus frames elapsed (the wrap
// ambiguity is a real limitation of the technique; BH² samples often
// enough that it does not trigger at access-link rates).
func SeqDelta(from, to uint16) int {
	d := int(to) - int(from)
	if d < 0 {
		d += SNModulus
	}
	return d
}

// FramesFor returns how many data frames carry the given payload bytes
// with the standard ~1500 B MTU framing.
func FramesFor(bytes int64) int {
	const mtu = 1500
	if bytes <= 0 {
		return 0
	}
	return int((bytes + mtu - 1) / mtu)
}

// LoadEstimator reconstructs a gateway's backhaul utilization from
// periodic SN observations, as a BH² terminal does while cycling through
// monitor slices.
//
// The samples that saw traffic live in a ring buffer in time order. A
// running frame sum and the time of the newest sample make every query
// O(1): windows only ever drop a prefix of the ring (samples are appended
// in time order), so each sample is added to and removed from the sum
// exactly once. Samples past MaxAgeSec may linger until the ring fills,
// but never count: Utilization drops everything before its window before
// it reads the sum, and ActiveWithin compares the newest sample's time
// with the window start.
type LoadEstimator struct {
	BackhaulBps float64 // the gateway's access speed
	FrameBytes  float64 // assumed mean frame size

	// MaxAgeSec bounds sample retention. A sample older than the newest
	// observation minus MaxAgeSec cannot influence any Utilization or
	// ActiveWithin query over a window <= MaxAgeSec (queries are issued at
	// or after the newest observation), so Observe discards such samples
	// before it grows a full ring. Zero retains samples forever — which
	// grows one sample per observation with traffic and is only suitable
	// for short runs.
	MaxAgeSec float64

	lastT  float64
	lastSN uint16
	primed bool

	// Ring of (time, frames) samples with frames > 0 covering the
	// estimation window: count samples starting at ring[head], wrapping at
	// len(ring), which is zero or a power of two.
	ring  []sample
	head  int
	count int
	// frames is the sum of the retained samples' frame counts.
	frames int
	// newestT is the time of the newest sample, valid while count > 0.
	newestT float64
}

type sample struct {
	t      float64
	frames int
}

// NewLoadEstimator creates an estimator for a gateway with the given
// backhaul speed.
func NewLoadEstimator(backhaulBps float64) *LoadEstimator {
	return &LoadEstimator{BackhaulBps: backhaulBps, FrameBytes: DefaultFrameBytes}
}

// Observe records a sequence-number reading at time t. Observations must be
// monotone in time.
func (e *LoadEstimator) Observe(t float64, sn uint16) {
	if e.primed {
		if t < e.lastT {
			panic(fmt.Sprintf("wifi: observation at %v before %v", t, e.lastT))
		}
		// A sample without frames adds nothing to any Utilization sum and
		// never makes ActiveWithin true, so only samples with traffic are
		// kept.
		if frames := SeqDelta(e.lastSN, sn); frames > 0 {
			if e.count == len(e.ring) && e.MaxAgeSec > 0 {
				e.dropBefore(t - e.MaxAgeSec)
			}
			e.append(sample{t, frames})
		}
	}
	e.lastT, e.lastSN, e.primed = t, sn, true
}

// append adds s at the ring's tail, doubling the ring when it is full (the
// capacity settles at the retained window, after which observations
// allocate nothing).
func (e *LoadEstimator) append(s sample) {
	if e.count == len(e.ring) {
		grown := make([]sample, max(16, 2*len(e.ring)))
		for i := 0; i < e.count; i++ {
			grown[i] = e.ring[(e.head+i)&(len(e.ring)-1)]
		}
		e.ring, e.head = grown, 0
	}
	e.ring[(e.head+e.count)&(len(e.ring)-1)] = s
	e.count++
	e.frames += s.frames
	e.newestT = s.t
}

// dropBefore discards every sample older than cut. Sample times never
// decrease along the ring, so those samples are exactly a prefix.
func (e *LoadEstimator) dropBefore(cut float64) {
	for e.count > 0 {
		s := &e.ring[e.head]
		if s.t >= cut {
			break
		}
		e.frames -= s.frames
		e.head = (e.head + 1) & (len(e.ring) - 1)
		e.count--
	}
}

// Utilization estimates the gateway's backhaul utilization over the window
// [now-window, now]: estimated bytes divided by the link capacity over the
// window. Returns 0 before two observations. It discards the samples
// before the window, so a later query sees only what is left.
func (e *LoadEstimator) Utilization(now, window float64) float64 {
	if window <= 0 || e.BackhaulBps <= 0 {
		return 0
	}
	e.dropBefore(now - window)
	bytes := float64(e.frames) * e.FrameBytes
	u := bytes * 8 / (e.BackhaulBps * window)
	if u > 1 {
		u = 1
	}
	return u
}

// ActiveWithin reports whether the gateway transmitted any data frame in
// [now-window, now] — the observable "will not hit its idle timeout" test.
func (e *LoadEstimator) ActiveWithin(now, window float64) bool {
	return e.count > 0 && e.newestT >= now-window
}

// Reset clears the estimator (used when a gateway sleeps: its counter
// restarts on wake).
func (e *LoadEstimator) Reset() {
	e.primed = false
	e.head, e.count, e.frames = 0, 0, 0
}
