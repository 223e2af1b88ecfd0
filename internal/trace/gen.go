package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"insomnia/internal/stats"
)

// Config parameterizes the synthetic trace generator. Zero values are
// replaced by defaults in Generate; see DefaultOfficeConfig and
// DefaultResidentialConfig for the two calibrated scenarios of the paper.
type Config struct {
	Clients  int     // number of terminal devices
	APs      int     // number of gateways / access points
	Duration float64 // trace length in seconds (default Day)

	BackhaulBps float64 // downlink access speed (default 6 Mbps)
	UplinkBps   float64 // uplink access speed (default 512 kbps)

	Profile Profile // time-of-day online fraction
	Seed    int64   // RNG seed; same seed => identical trace

	FlowsOnly bool // skip keepalive materialization (large-scale Fig 2 runs)
	Uplink    bool // emit uplink flows too (residential scenario)

	// Placement. Real client-AP association is skewed (lecture halls vs
	// corner offices); ZipfS > 0 draws AP popularity from a Zipf law with
	// that exponent. ZipfS == 0 places clients round-robin (balanced),
	// which is what the paper's simulation scenario does ("we uniformly
	// distribute the 272 clients over the 40 gateways").
	ZipfS float64

	// Symmetric switches the generator into exact-symmetry mode: clients
	// are placed strictly round-robin (client c on AP c%APs, no shuffle)
	// and each client's RNG stream is keyed by its slot c/APs instead of
	// its global index. Gateways that serve the same number of clients
	// then receive byte-identical workloads — the property the campaign
	// symmetry-collapse pass (internal/quotient) relies on. Incompatible
	// with ZipfS > 0.
	Symmetric bool

	// ClientWeightSigma adds per-client heterogeneity: each client's
	// online propensity and traffic intensity are scaled by a lognormal
	// factor with this sigma (mean 1). Zero means homogeneous clients.
	ClientWeightSigma float64

	// Traffic shape. Zero values take the calibrated defaults below.
	SessionMeanSec float64 // mean online session length
	FlowProb       float64 // probability an event epoch is a flow (vs keepalive)
	ThinkMedianSec float64 // median of the lognormal think-time component
	FlowBodyMedian float64 // lognormal median of typical web flows (bytes)
	BigFlowProb    float64 // probability a flow is a large download

	// StreamProb is the probability that an online session carries a
	// rate-limited media stream (internet radio, 2007-era video) for its
	// whole duration. Streams provide the sustained medium loads real
	// traces exhibit between bursty transfers; NoStreams disables them.
	StreamProb float64
	NoStreams  bool
}

// Calibrated defaults shared by both scenarios; see the calibration tests,
// which pin the generator to the paper's published statistics.
const (
	defSessionMean = 3600.0 // 1 h terminal sessions
	defFlowProb    = 0.4
	defThinkMedian = 7.0
	defBodyMedian  = 80e3
	defBigFlow     = 0.10

	thinkSigma    = 1.0  // lognormal sigma of short think times
	longGapProb   = 0.03 // probability of a heavy-tailed pause
	longGapAlpha  = 1.15 // bounded Pareto shape of long pauses
	longGapLo     = 20.0
	longGapHi     = 600.0
	flowBodySigma = 1.4  // lognormal sigma of web flow bodies
	bigFlowAlpha  = 1.05 // bounded Pareto shape of large downloads
	bigFlowLo     = 5e5  // 500 kB
	bigFlowHi     = 8e6  // 8 MB: a single flow cannot saturate a 60 s window
	keepaliveBase = 60   // bytes
	keepaliveMean = 100.0
	ackFraction   = 0.03 // uplink ACK volume per downlink flow
	uploadProb    = 0.04 // probability a flow has a companion upload
	uploadScale   = 0.5  // companion upload size factor

	defStreamProb   = 0.15  // sessions carrying a media stream
	streamRateMed   = 250e3 // lognormal median stream rate, bps (FLV-era video)
	streamRateSigma = 0.5
	streamRateMin   = 48e3
	streamRateMax   = 500e3
	streamChunkSec  = 240.0 // median media chunk (song / clip) length

	// Engaged/quiet spells within a session: a user browses actively for a
	// few minutes, then leaves the machine alone (reading, meetings) —
	// silent at packet level, since 2007-era idle laptops sent next to
	// nothing. These quiet stretches are what let plain SoI put some
	// gateways to sleep even during working hours (Fig 10, density 1).
	engagedMeanSec = 200.0
	quietAlpha     = 1.15
	quietLoSec     = 30.0
	quietHiSec     = 240.0
)

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = Day
	}
	if c.BackhaulBps == 0 {
		c.BackhaulBps = DefaultBackhaulBps
	}
	if c.UplinkBps == 0 {
		c.UplinkBps = 512e3
	}
	if c.SessionMeanSec == 0 {
		c.SessionMeanSec = defSessionMean
	}
	if c.FlowProb == 0 {
		c.FlowProb = defFlowProb
	}
	if c.ThinkMedianSec == 0 {
		c.ThinkMedianSec = defThinkMedian
	}
	if c.FlowBodyMedian == 0 {
		c.FlowBodyMedian = defBodyMedian
	}
	if c.BigFlowProb == 0 {
		c.BigFlowProb = defBigFlow
	}
	if c.StreamProb == 0 && !c.NoStreams {
		c.StreamProb = defStreamProb
	}
	if c.NoStreams {
		c.StreamProb = 0
	}
	return c
}

// DefaultOfficeConfig is the UCSD-CSE-like scenario behind Figs 3 and 4:
// 272 clients on 40 APs with 6 Mbps backhaul, downlink only, skewed
// client-AP association as in a real building.
func DefaultOfficeConfig(seed int64) Config {
	return Config{
		Clients: 272, APs: 40, Profile: OfficeProfile, Seed: seed,
		ZipfS: 1.0, ClientWeightSigma: 0.6,
	}
}

// DefaultSimConfig is the trace used by the §5 simulation scenario: same
// traffic as the office trace but with the paper's uniform client placement.
func DefaultSimConfig(seed int64) Config {
	c := DefaultOfficeConfig(seed)
	c.ZipfS = 0
	return c
}

// DefaultCityConfig is the city-scale benchmark scenario: 10,000
// residential gateways serving 100,000 terminal devices (~10 devices per
// household gateway) under the evening-peak residential profile. Unlike
// DefaultResidentialConfig it keeps keepalives materialized — the
// "continuous light traffic" is exactly what the engine's hot path has to
// survive at scale — and uses moderate per-client skew. Pair it with
// topology.GridCity (OverlapGraph does not scale to 10k gateways) and
// override Duration for bounded runs. Campaign specs with the
// residential-derived profiles start from it; perfbench's metro-shuffled
// workload runs it at full size.
func DefaultCityConfig(seed int64) Config {
	return Config{
		Clients: 100_000, APs: 10_000, Profile: ResidentialProfile, Seed: seed,
		ClientWeightSigma: 1.0,
		SessionMeanSec:    5400,
		FlowBodyMedian:    200e3,
		BigFlowProb:       0.30,
	}
}

// DefaultResidentialConfig is the Fig 2 scenario scaled to n subscribers:
// one client per gateway, evening-peak profile, heavier per-user traffic
// (streaming/P2P era), strong across-subscriber skew, down+uplink.
func DefaultResidentialConfig(n int, seed int64) Config {
	return Config{
		Clients: n, APs: n, Profile: ResidentialProfile, Seed: seed,
		Uplink: true, FlowsOnly: true,
		ClientWeightSigma: 1.5,
		SessionMeanSec:    5400,
		FlowProb:          0.8,
		ThinkMedianSec:    4,
		FlowBodyMedian:    200e3,
		BigFlowProb:       0.45,
	}
}

// Generate synthesizes a trace from cfg. It is deterministic in cfg
// (including Seed): large traces are generated on GOMAXPROCS goroutines,
// and the result is byte-identical to a one-goroutine run.
func Generate(cfg Config) (*Trace, error) {
	return generate(cfg, runtime.GOMAXPROCS(0))
}

// minRangeClients is the fewest clients one generator goroutine takes on.
// Traces smaller than two ranges (the 272-client office trace, quotient
// traces of a few dozen clients) run serially.
const minRangeClients = 512

// generate is Generate on at most workers goroutines.
func generate(cfg Config, workers int) (*Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Clients <= 0 || cfg.APs <= 0 {
		return nil, fmt.Errorf("trace: need positive Clients and APs, got %d/%d", cfg.Clients, cfg.APs)
	}
	if cfg.Clients < cfg.APs {
		return nil, fmt.Errorf("trace: fewer clients (%d) than APs (%d)", cfg.Clients, cfg.APs)
	}
	if cfg.Symmetric && cfg.ZipfS > 0 {
		return nil, fmt.Errorf("trace: Symmetric placement is incompatible with ZipfS > 0")
	}
	tr := &Trace{Cfg: cfg, ClientAP: make([]int, cfg.Clients)}
	if ef, ek := expectedEvents(cfg); ef > 0 || ek > 0 {
		tr.Flows = make([]Flow, 0, ef)
		tr.Keepalives = make([]Packet, 0, ek)
	}

	placeRNG := stats.NewRNG(cfg.Seed, 0x9a7e)
	if cfg.Symmetric {
		// Exact-symmetry placement: no RNG involvement, client c sits on
		// AP c%APs so AP g's clients occupy slots 0..count(g)-1.
		for c := 0; c < cfg.Clients; c++ {
			tr.ClientAP[c] = c % cfg.APs
		}
	} else if cfg.ZipfS > 0 {
		// Zipf AP popularity in a random AP order, but guarantee every AP
		// at least one client so no gateway is structurally dead.
		weights := make([]float64, cfg.APs)
		order := placeRNG.Perm(cfg.APs)
		for rank, ap := range order {
			weights[ap] = 1 / math.Pow(float64(rank+1), cfg.ZipfS)
		}
		for c := 0; c < cfg.Clients; c++ {
			if c < cfg.APs {
				tr.ClientAP[c] = order[c]
				continue
			}
			tr.ClientAP[c] = stats.WeightedChoice(placeRNG, weights)
		}
		placeRNG.Shuffle(cfg.Clients, func(i, j int) {
			tr.ClientAP[i], tr.ClientAP[j] = tr.ClientAP[j], tr.ClientAP[i]
		})
	} else {
		// Balanced round-robin over a shuffled client order.
		perm := placeRNG.Perm(cfg.Clients)
		for i, c := range perm {
			tr.ClientAP[c] = i % cfg.APs
		}
	}

	// Contiguous client ranges, each on its own goroutine with its own
	// generator. Every range appends into an equal share of the event
	// slices' capacity, its window. A range whose next client does not
	// fit in its window puts that client and all later ones in a private
	// spill slice, so the only event storage beyond the serial loop's is
	// the overflow. Compaction then lays the ranges out in client order:
	// the slice the serial loop builds. Small traces stay on one range,
	// which has no neighbour to protect: it appends to the whole slice and
	// grows it as the serial loop does, since a spill plus an exact-size
	// copy costs more than one append growth when a small trace outgrows
	// its estimate (quotient traces of a few slot streams often do).
	ranges := min(workers, cfg.Clients/minRangeClients)
	if ranges < 1 {
		ranges = 1
	}
	fs, ks := make([]lane[Flow], ranges), make([]lane[Packet], ranges)
	if ranges == 1 {
		fs[0].spill, ks[0].spill = tr.Flows, tr.Keepalives
	}
	var wg sync.WaitGroup
	for i := range ranges {
		fs[i].win, ks[i].win = window(tr.Flows, i, ranges), window(tr.Keepalives, i, ranges)
		wg.Add(1)
		go func() {
			defer wg.Done()
			genRange(&fs[i], &ks[i], cfg, cfg.Clients*i/ranges, cfg.Clients*(i+1)/ranges)
		}()
	}
	wg.Wait()
	tr.Flows, tr.Keepalives = compact(tr.Flows, fs), compact(tr.Keepalives, ks)
	sortEvents(tr)
	return tr, nil
}

// lane holds one range's events of one kind in client order: first in
// the range's window of the shared slice, then, from the first client
// that outgrows the window, in a private spill slice.
type lane[E any] struct{ win, spill []E }

// next returns the slice the lane's next client appends its events to:
// the free rest of the window, or the spill once there is one.
func (l *lane[E]) next() []E {
	if l.spill != nil {
		return l.spill
	}
	return l.win[len(l.win):]
}

// commit takes back s, the slice next returned with one client's events
// appended. If they outgrew the window, append has moved them, and only
// them, to a new array, which starts the spill.
func (l *lane[E]) commit(s []E) {
	switch {
	case l.spill != nil:
		l.spill = s
	case cap(s) == cap(l.win)-len(l.win):
		l.win = l.win[:len(l.win)+len(s)]
	default:
		l.spill = s
	}
}

// genRange adds the events of clients [lo, hi) to flows and keeps, in
// client order. Every client reseeds the range's one generator from its
// own key, so its draws never depend on the clients before it and ranges
// can run concurrently. Reseeding instead of allocating a generator per
// client matters: math/rand's source alone is ~5 KB, which at city scale
// (100k clients) was most of the generator's heap churn. Reseed
// reproduces NewRNG's state exactly and costs ~3 µs: stats' source seeds
// from a table of powers rather than math/rand's 1841-step chain.
func genRange(flows *lane[Flow], keeps *lane[Packet], cfg Config, lo, hi int) {
	r := stats.NewRNG(cfg.Seed, 0x1000)
	for c := lo; c < hi; {
		key, next := uint64(c), c+1
		if cfg.Symmetric {
			// Slot-keyed streams: clients in the same slot on different
			// APs draw identical event sequences (see Config.Symmetric).
			// A slot's clients are contiguous, so generate the first one
			// in this range and stamp copies for the rest.
			key = uint64(c / cfg.APs)
			next = min(int(key+1)*cfg.APs, hi)
		}
		stats.Reseed(r, cfg.Seed, 0x1000+key)
		w := 1.0
		if cfg.ClientWeightSigma > 0 {
			s := cfg.ClientWeightSigma
			w = stats.Lognormal(r, -s*s/2, s) // mean 1
		}
		one := Trace{Flows: flows.next(), Keepalives: keeps.next()}
		f0, k0 := len(one.Flows), len(one.Keepalives)
		genClient(&one, int32(c), r, cfg, w)
		flows.commit(one.Flows)
		keeps.commit(one.Keepalives)
		src := Trace{Flows: one.Flows[f0:], Keepalives: one.Keepalives[k0:]}
		for d := c + 1; d < next; d++ {
			one = Trace{Flows: flows.next(), Keepalives: keeps.next()}
			for _, f := range src.Flows {
				f.Client = int32(d)
				one.Flows = append(one.Flows, f)
			}
			for _, k := range src.Keepalives {
				k.Client = int32(d)
				one.Keepalives = append(one.Keepalives, k)
			}
			flows.commit(one.Flows)
			keeps.commit(one.Keepalives)
		}
		c = next
	}
}

// window returns range i of n's share of big's spare capacity: empty,
// starting at windowAt(big, i, n) and capped where window i+1 starts.
func window[E any](big []E, i, n int) []E {
	return big[windowAt(big, i, n):windowAt(big, i, n):windowAt(big, i+1, n)]
}

func windowAt[E any](big []E, i, n int) int { return cap(big) * i / n }

// compact concatenates lanes, the ranges' events in client order, into
// big's backing array (a new one if they outgrew it) and returns the
// result. Lane i's window part still sits at windowAt(big, i, n). Parts
// move so that none overwrites a window not yet moved. A window bound
// left ends inside its own window and starts above every earlier window's
// events, so those move first, left to right. A window bound right lands
// above every earlier window and below none it has not moved, so they
// follow, right to left. Spills come last, when no window is left to
// overwrite. One lane with only a spill is the one range that appended
// to the whole slice; it is already the result.
func compact[E any](big []E, lanes []lane[E]) []E {
	if len(lanes) == 1 && len(lanes[0].win) == 0 {
		return lanes[0].spill
	}
	total := 0
	for _, l := range lanes {
		total += len(l.win) + len(l.spill)
	}
	if total > cap(big) {
		out := make([]E, 0, total)
		for _, l := range lanes {
			out = append(append(out, l.win...), l.spill...)
		}
		return out
	}
	out, n := big[:total], len(lanes)
	dst := make([]int, n)
	for i, at := 0, 0; i < n; i++ {
		dst[i], at = at, at+len(lanes[i].win)+len(lanes[i].spill)
	}
	for i, l := range lanes {
		if dst[i] < windowAt(big, i, n) {
			copy(out[dst[i]:], l.win)
		}
	}
	for i := n - 1; i >= 0; i-- {
		if dst[i] > windowAt(big, i, n) {
			copy(out[dst[i]:], lanes[i].win)
		}
	}
	for i, l := range lanes {
		copy(out[dst[i]+len(l.win):], l.spill)
	}
	return out
}

// sortEvents orders flows by Start and keepalives by T, the two sorts
// concurrently. Traces are pinned byte for byte, so ties must land
// exactly where sort.Slice with the equivalent less function puts them:
// slices.SortFunc is the same pdqsort, instantiated from one template, so
// it permutes identically (TestSortEventsMatchesSortSlice) without
// sort.Slice's reflection-based swapper. Each sort stays serial: streams
// that start at t=0 tie on every city trace, and a parallel sort would
// permute ties differently.
func sortEvents(tr *Trace) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slices.SortFunc(tr.Flows, func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) })
	}()
	slices.SortFunc(tr.Keepalives, func(a, b Packet) int { return cmp.Compare(a.T, b.T) })
	wg.Wait()
}

// boundedParetoMean is the mean of the bounded Pareto(alpha, lo, hi)
// distribution stats.Pareto draws from.
func boundedParetoMean(alpha, lo, hi float64) float64 {
	la, ha := math.Pow(lo, alpha), math.Pow(hi, alpha)
	return la / (1 - la/ha) * alpha / (alpha - 1) *
		(math.Pow(lo, 1-alpha) - math.Pow(hi, 1-alpha))
}

// expectedEvents estimates the flow and keepalive counts of a trace from
// the generator's own calibrated process parameters, so Generate can size
// its event slices once instead of growing them through doublings (at city
// scale the wasted growth copies are tens of millions of events). The
// estimate only controls capacity — a miss in either direction is
// harmless — but it tracks the realized counts within ~20%.
func expectedEvents(cfg Config) (flows, keepalives int) {
	// Mean online fraction over the trace, sampled from the profile.
	const samples = 96
	mean := 0.0
	for i := 0; i < samples; i++ {
		mean += cfg.Profile.At((float64(i) + 0.5) * cfg.Duration / samples)
	}
	mean /= samples
	if mean <= 0 {
		return 0, 0
	}
	if s := cfg.ClientWeightSigma; s > 0 {
		// Per-client weights are lognormal with mean 1, but the online
		// fraction is capped at 0.98, so heavy users contribute less than
		// weight*mean. Average min(mean*w, 0.98) over weight quantiles.
		const wq = 32
		capped := 0.0
		for i := 0; i < wq; i++ {
			p := (float64(i) + 0.5) / wq
			w := math.Exp(-s*s/2 + s*math.Sqrt2*math.Erfinv(2*p-1))
			capped += math.Min(mean*w, 0.98)
		}
		mean = capped / wq
	}

	// Event epochs happen during the engaged parts of online time, one per
	// think gap (a lognormal/long-pause mixture; see thinkGap).
	thinkMean := (1-longGapProb)*cfg.ThinkMedianSec*math.Exp(thinkSigma*thinkSigma/2) +
		longGapProb*boundedParetoMean(longGapAlpha, longGapLo, longGapHi)
	engagedFrac := engagedMeanSec /
		(engagedMeanSec + boundedParetoMean(quietAlpha, quietLoSec, quietHiSec))
	onlineSec := mean * cfg.Duration // per client
	epochs := onlineSec * engagedFrac / thinkMean

	flowsPer := epochs * cfg.FlowProb
	if cfg.Uplink {
		flowsPer *= 2 + uploadProb // every flow gets an ACK, some an upload
	}
	if cfg.StreamProb > 0 {
		sessions := onlineSec/cfg.SessionMeanSec + mean
		flowsPer += sessions * cfg.StreamProb * cfg.SessionMeanSec / streamChunkSec
	}
	kaPer := 0.0
	if !cfg.FlowsOnly {
		kaPer = epochs * (1 - cfg.FlowProb)
	}
	n := float64(cfg.Clients)
	const headroom = 1.15
	return int(n*flowsPer*headroom) + 64, int(n*kaPer*headroom) + 64
}

// genClient simulates one client's day: an on/off terminal-session process
// whose stationary online fraction tracks weight*cfg.Profile, with event
// epochs (flows or keepalives) during online periods.
func genClient(tr *Trace, client int32, r *rand.Rand, cfg Config, weight float64) {
	// Two-state Markov process with time-varying on-rate. Off->On rate
	// r_on(t) = a(t) / (S * (1 - a(t))) gives stationary online fraction
	// a(t) when On->Off rate is 1/S. Simulated by thinning at rMax.
	S := cfg.SessionMeanSec
	online := func(t float64) float64 {
		a := cfg.Profile.At(t) * weight
		if a > 0.98 {
			a = 0.98
		}
		return a
	}
	aMax := cfg.Profile.Max() * weight
	if aMax > 0.98 {
		aMax = 0.98
	}
	rMax := aMax / (S * (1 - aMax))
	onRate := func(t float64) float64 {
		a := online(t)
		return a / (S * (1 - a))
	}

	t := 0.0
	isOn := r.Float64() < online(0)
	var sessionEnd, spellEnd float64
	engaged := true
	if isOn {
		sessionEnd = stats.Exp(r, S)
		spellEnd = stats.Exp(r, engagedMeanSec)
		maybeStream(tr, client, r, cfg, t, sessionEnd)
	}
	for t < cfg.Duration {
		if !isOn {
			for t < cfg.Duration {
				t += stats.Exp(r, 1/rMax)
				if r.Float64() < onRate(t)/rMax {
					break
				}
			}
			if t >= cfg.Duration {
				return
			}
			isOn = true
			sessionEnd = t + stats.Exp(r, S)
			engaged = true
			spellEnd = t + stats.Exp(r, engagedMeanSec)
			maybeStream(tr, client, r, cfg, t, sessionEnd)
			continue
		}
		if t >= spellEnd {
			// Toggle between active browsing and packet-silent spells.
			engaged = !engaged
			if engaged {
				spellEnd = t + stats.Exp(r, engagedMeanSec)
			} else {
				spellEnd = t + stats.Pareto(r, quietAlpha, quietLoSec, quietHiSec)
			}
		}
		if !engaged {
			// Jump silently to the end of the quiet spell (or session).
			t = spellEnd
			if t >= sessionEnd || t >= cfg.Duration {
				t = sessionEnd
				isOn = false
			}
			continue
		}
		t += thinkGap(r, cfg)
		if t >= sessionEnd || t >= cfg.Duration {
			t = sessionEnd
			isOn = false
			continue
		}
		if r.Float64() < cfg.FlowProb {
			size := flowSize(r, cfg, weight)
			tr.Flows = append(tr.Flows, Flow{Start: t, Client: client, Bytes: size})
			if cfg.Uplink {
				ack := int64(float64(size) * ackFraction)
				if ack < 40 {
					ack = 40
				}
				tr.Flows = append(tr.Flows, Flow{Start: t, Client: client, Bytes: ack, Up: true})
				if r.Float64() < uploadProb {
					up := int64(float64(flowSize(r, cfg, weight)) * uploadScale)
					if up < 1000 {
						up = 1000
					}
					tr.Flows = append(tr.Flows, Flow{Start: t, Client: client, Bytes: up, Up: true})
				}
			}
		} else if !cfg.FlowsOnly {
			b := keepaliveBase + int32(stats.Exp(r, keepaliveMean))
			if b > 1400 {
				b = 1400
			}
			tr.Keepalives = append(tr.Keepalives, Packet{T: t, Client: client, Bytes: b})
		}
	}
}

// maybeStream emits a rate-limited media stream spanning a session with
// probability cfg.StreamProb. Media plays in chunks (songs, clips, video
// segments of a few minutes), so the stream is a back-to-back sequence of
// rate-capped flows: each chunk is new traffic and re-routes through the
// terminal's current gateway — exactly how BH² migrates long-lived media
// sessions without dropping flows (§5.1).
func maybeStream(tr *Trace, client int32, r *rand.Rand, cfg Config, start, end float64) {
	if r.Float64() >= cfg.StreamProb {
		return
	}
	if end > cfg.Duration {
		end = cfg.Duration
	}
	if end-start < 60 {
		return // too short to bother tuning in
	}
	rate := stats.Lognormal(r, math.Log(streamRateMed), streamRateSigma)
	if rate < streamRateMin {
		rate = streamRateMin
	}
	if rate > streamRateMax {
		rate = streamRateMax
	}
	for t := start; t < end; {
		chunk := stats.Lognormal(r, math.Log(streamChunkSec), 0.4)
		if t+chunk > end {
			chunk = end - t
		}
		if chunk < 10 {
			break
		}
		tr.Flows = append(tr.Flows, Flow{
			Start: t, Client: client,
			Bytes: int64(rate / 8 * chunk),
			Rate:  rate,
		})
		t += chunk
	}
}

// thinkGap draws one inter-event gap: mostly short lognormal think times
// with an occasional heavy-tailed pause. The mixture is what produces the
// Fig 4 idle-gap histogram: the bulk of idle time in sub-60 s gaps with a
// 15-20% tail beyond 60 s.
func thinkGap(r *rand.Rand, cfg Config) float64 {
	if r.Float64() < longGapProb {
		return stats.Pareto(r, longGapAlpha, longGapLo, longGapHi)
	}
	return stats.Lognormal(r, math.Log(cfg.ThinkMedianSec), thinkSigma)
}

// flowSize draws a flow size in bytes: lognormal web bodies with a bounded
// Pareto tail of large downloads. The client weight scales the chance of a
// heavy download, not the body size — heavy users are heavy because they
// fetch more and bigger things, not because their pages differ.
func flowSize(r *rand.Rand, cfg Config, weight float64) int64 {
	bigP := cfg.BigFlowProb * weight
	if bigP > 0.6 {
		bigP = 0.6
	}
	var s float64
	if r.Float64() < bigP {
		s = stats.Pareto(r, bigFlowAlpha, bigFlowLo, bigFlowHi)
	} else {
		s = stats.Lognormal(r, math.Log(cfg.FlowBodyMedian), flowBodySigma)
	}
	if s < 200 {
		s = 200
	}
	return int64(s)
}
