package wifi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTDMAShares(t *testing.T) {
	d := DefaultTDMA
	if got := d.ActiveSliceSec(); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("active slice = %v, want 0.06", got)
	}
	// 4 other gateways share the remaining 40 ms: 10 ms each.
	if got := d.MonitorSliceSec(4); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("monitor slice = %v, want 0.01", got)
	}
	if got := d.MonitorSliceSec(0); got != 0 {
		t.Errorf("monitor slice with no others = %v", got)
	}
	// 60% of a 12 Mbps wireless link covers a 6 Mbps backhaul (§5.3 fn 7).
	if got := d.EffectiveBps(12e6); got < 6e6 {
		t.Errorf("effective rate %v cannot drain 6 Mbps backhaul", got)
	}
}

func TestSeqCounterWraps(t *testing.T) {
	var c SeqCounter
	c.Advance(4000)
	if c.Value() != 4000 {
		t.Fatalf("sn = %d", c.Value())
	}
	c.Advance(200)
	if c.Value() != 104 {
		t.Fatalf("wrapped sn = %d, want 104", c.Value())
	}
}

func TestSeqCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c SeqCounter
	c.Advance(-1)
}

func TestSeqDelta(t *testing.T) {
	cases := []struct {
		from, to uint16
		want     int
	}{
		{0, 0, 0},
		{0, 5, 5},
		{4090, 10, 16}, // wrap
		{5, 5, 0},
		{100, 99, 4095}, // full wrap minus one
	}
	for _, c := range cases {
		if got := SeqDelta(c.from, c.to); got != c.want {
			t.Errorf("SeqDelta(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

// Property: SeqDelta inverts Advance for under-modulus counts.
func TestSeqDeltaInvertsAdvanceProperty(t *testing.T) {
	f := func(start uint16, n uint16) bool {
		c := SeqCounter{sn: start % SNModulus}
		before := c.Value()
		frames := int(n % SNModulus)
		c.Advance(frames)
		return SeqDelta(before, c.Value()) == frames
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFramesFor(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {1500, 1}, {1501, 2}, {4500, 3},
	}
	for _, c := range cases {
		if got := FramesFor(c.bytes); got != c.want {
			t.Errorf("FramesFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestLoadEstimatorTracksUtilization(t *testing.T) {
	// A 6 Mbps gateway sending 300 MTU-sized frames over 60 s:
	// 300*1500*8 / (6e6*60) = 1% utilization.
	e := NewLoadEstimator(6e6)
	var c SeqCounter
	e.Observe(0, c.Value())
	for ts := 1; ts <= 60; ts++ {
		c.Advance(5)
		e.Observe(float64(ts), c.Value())
	}
	got := e.Utilization(60, 60)
	want := 300.0 * DefaultFrameBytes * 8 / (6e6 * 60)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("utilization = %v, want %v", got, want)
	}
}

func TestLoadEstimatorWindowsOldSamples(t *testing.T) {
	e := NewLoadEstimator(6e6)
	var c SeqCounter
	e.Observe(0, c.Value())
	c.Advance(1000)
	e.Observe(10, c.Value()) // burst at t=10
	e.Observe(100, c.Value())
	// A window covering only [40,100] must not see the burst.
	if got := e.Utilization(100, 60); got != 0 {
		t.Errorf("old burst leaked into window: %v", got)
	}
}

func TestLoadEstimatorClampsToOne(t *testing.T) {
	e := NewLoadEstimator(1000) // 1 kbps link
	var c SeqCounter
	e.Observe(0, c.Value())
	c.Advance(500)
	e.Observe(1, c.Value())
	if got := e.Utilization(1, 1); got != 1 {
		t.Errorf("utilization = %v, want clamped 1", got)
	}
}

func TestLoadEstimatorBeforePriming(t *testing.T) {
	e := NewLoadEstimator(6e6)
	if got := e.Utilization(10, 60); got != 0 {
		t.Errorf("unprimed utilization = %v", got)
	}
	e.Observe(0, 42)
	if got := e.Utilization(10, 60); got != 0 {
		t.Errorf("single-observation utilization = %v", got)
	}
}

func TestLoadEstimatorFrameSizeError(t *testing.T) {
	// The estimator assumes 1200 B frames; if the gateway actually sends
	// 300 B frames the estimate is 4x the truth — the §3.2 error source.
	e := NewLoadEstimator(6e6)
	var c SeqCounter
	e.Observe(0, c.Value())
	trueBytes := int64(0)
	for ts := 1; ts <= 10; ts++ {
		c.Advance(FramesFor(300)) // 1 frame per 300 B keepalive
		trueBytes += 300
		e.Observe(float64(ts), c.Value())
	}
	got := e.Utilization(10, 10)
	truth := float64(trueBytes) * 8 / (6e6 * 10)
	if got <= truth {
		t.Errorf("estimator should overestimate small frames: %v <= %v", got, truth)
	}
	if got > truth*5 {
		t.Errorf("overestimate too large: %v vs %v", got, truth)
	}
}

func TestLoadEstimatorReset(t *testing.T) {
	e := NewLoadEstimator(6e6)
	var c SeqCounter
	e.Observe(0, c.Value())
	c.Advance(100)
	e.Observe(1, c.Value())
	e.Reset()
	if got := e.Utilization(2, 60); got != 0 {
		t.Errorf("post-reset utilization = %v", got)
	}
	// Re-prime after reset: first observation establishes the new baseline
	// without counting the sleep-time delta.
	e.Observe(2, 0)
	e.Observe(3, 10)
	if got := e.Utilization(3, 1); got == 0 {
		t.Error("estimator dead after reset")
	}
}

func TestLoadEstimatorPanicsOnTimeTravel(t *testing.T) {
	e := NewLoadEstimator(6e6)
	e.Observe(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Observe(5, 1)
}

func TestActiveWithin(t *testing.T) {
	e := NewLoadEstimator(6e6)
	var c SeqCounter
	e.Observe(0, c.Value())
	e.Observe(1, c.Value()) // zero frames
	if e.ActiveWithin(1, 60) {
		t.Error("silent gateway reported active")
	}
	c.Advance(1)
	e.Observe(2, c.Value())
	if !e.ActiveWithin(2, 60) {
		t.Error("gateway with a frame not reported active")
	}
	// Out of window: a burst at t=2 is invisible from t=100 with window 60.
	e.Observe(100, c.Value())
	if e.ActiveWithin(100, 60) {
		t.Error("stale frame counted as recent activity")
	}
}

// refEstimator is the slice-backed LoadEstimator the ring replaced, kept
// as the differential-test reference: Observe appends and compacts once
// half the slice is stale, Utilization rescans and compacts to its window,
// ActiveWithin rescans.
type refEstimator struct {
	BackhaulBps, FrameBytes, MaxAgeSec float64

	lastT   float64
	lastSN  uint16
	primed  bool
	samples []sample
}

func (e *refEstimator) Observe(t float64, sn uint16) {
	if e.primed {
		if t < e.lastT {
			panic("time travel")
		}
		e.samples = append(e.samples, sample{t, SeqDelta(e.lastSN, sn)})
		if n := len(e.samples); e.MaxAgeSec > 0 && n >= 32 && e.samples[n/2].t < t-e.MaxAgeSec {
			cut := t - e.MaxAgeSec
			keep := e.samples[:0]
			for _, s := range e.samples {
				if s.t >= cut {
					keep = append(keep, s)
				}
			}
			e.samples = keep
		}
	}
	e.lastT, e.lastSN, e.primed = t, sn, true
}

func (e *refEstimator) Utilization(now, window float64) float64 {
	if window <= 0 || e.BackhaulBps <= 0 {
		return 0
	}
	from := now - window
	var frames int
	keep := e.samples[:0]
	for _, s := range e.samples {
		if s.t >= from {
			keep = append(keep, s)
			frames += s.frames
		}
	}
	e.samples = keep
	bytes := float64(frames) * e.FrameBytes
	u := bytes * 8 / (e.BackhaulBps * window)
	if u > 1 {
		u = 1
	}
	return u
}

func (e *refEstimator) ActiveWithin(now, window float64) bool {
	from := now - window
	for _, s := range e.samples {
		if s.t >= from && s.frames > 0 {
			return true
		}
	}
	return false
}

func (e *refEstimator) Reset() {
	e.primed = false
	e.samples = e.samples[:0]
}

// matchReference replays the op stream encoded in ops (three bytes per op)
// on the ring estimator and on the reference, failing on the first query
// whose answer differs. Utilization must agree bit for bit.
//
// Observation times advance on a half-second grid, often by zero
// (repeated timestamps), and SN deltas reach 4095 so the 12-bit counter
// wraps. With maxAge > 0 queries stay within the retention contract:
// windows up to maxAge, issued at or after the newest observation. With
// maxAge 0 (nothing is ever aged out) windows range past any history,
// include +Inf, and queries may also look from before the newest
// observation.
func matchReference(t *testing.T, maxAge, backhaul float64, ops []byte) {
	t.Helper()
	got := &LoadEstimator{BackhaulBps: backhaul, FrameBytes: DefaultFrameBytes, MaxAgeSec: maxAge}
	want := &refEstimator{BackhaulBps: backhaul, FrameBytes: DefaultFrameBytes, MaxAgeSec: maxAge}
	var clock float64
	var sn SeqCounter
	window := func(b byte) float64 {
		switch {
		case b == 255:
			return -1
		case maxAge > 0 && b%4 == 0:
			return maxAge
		case maxAge > 0:
			return math.Min(float64(b%64)*0.5, maxAge)
		case b == 254:
			return math.Inf(1)
		default:
			return float64(b%128) * 0.5
		}
	}
	queryAt := func(b byte) float64 {
		d := float64(b%8) * 0.5
		if maxAge == 0 && b&0x80 != 0 {
			return clock - 4*d
		}
		return clock + d
	}
	for i := 0; i+2 < len(ops); i += 3 {
		// Utilization discards what lies before its window, so it is kept
		// rare: long stretches between calls let MaxAgeSec retention
		// decide what the non-destructive ActiveWithin queries see.
		op, b1, b2 := ops[i]%32, ops[i+1], ops[i+2]
		switch {
		case op < 18:
			clock += float64(b1%6) * 0.5
			frames := int(b2 % 8)
			if b2 >= 192 {
				frames = int(b2) * 16 % SNModulus
			}
			sn.Advance(frames)
			got.Observe(clock, sn.Value())
			want.Observe(clock, sn.Value())
		case op < 20:
			now, w := queryAt(b1), window(b2)
			if g, r := got.Utilization(now, w), want.Utilization(now, w); g != r {
				t.Fatalf("op %d: Utilization(%v, %v) = %v, reference %v", i/3, now, w, g, r)
			}
		case op < 31:
			now, w := queryAt(b1), window(b2)
			if g, r := got.ActiveWithin(now, w), want.ActiveWithin(now, w); g != r {
				t.Fatalf("op %d: ActiveWithin(%v, %v) = %v, reference %v", i/3, now, w, g, r)
			}
		default:
			got.Reset()
			want.Reset()
		}
	}
}

// TestLoadEstimatorMatchesReference runs long random op streams through
// the ring and the slice reference, for the testbed's unbounded estimator
// (MaxAgeSec 0) and for the simulator's windowed ones, on an access link
// and on a link slow enough to clamp utilization at 1.
func TestLoadEstimatorMatchesReference(t *testing.T) {
	for _, maxAge := range []float64{0, 7.5, 60} {
		for _, backhaul := range []float64{6e6, 2e4} {
			for seed := int64(1); seed <= 5; seed++ {
				r := rand.New(rand.NewSource(seed))
				ops := make([]byte, 3*20000)
				r.Read(ops)
				matchReference(t, maxAge, backhaul, ops)
			}
		}
	}
}

// FuzzLoadEstimatorMatchesReference lets the fuzzer pick the op stream;
// the first byte picks the retention bound and the link speed.
func FuzzLoadEstimatorMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 0, 2, 200, 3, 0, 10, 5, 1, 3, 7, 7, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 250, 1, 2, 255, 4, 3, 60, 6, 5, 20, 7, 0, 0, 0, 5, 0, 0})
	f.Add([]byte{5, 0, 1, 1, 0, 0, 1, 4, 0, 254, 6, 0, 254, 3, 130, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		maxAge := []float64{0, 3, 10, 60}[data[0]%4]
		backhaul := []float64{6e6, 2e4}[data[0]/4%2]
		matchReference(t, maxAge, backhaul, data[1:])
	})
}
