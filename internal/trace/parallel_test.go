package trace

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// layout is how generator ranges place one event kind in their windows
// of a slice with capacity cp.
type layout struct {
	overflow   int  // events beyond their range's window, over all ranges
	boundRight bool // some range compacts to a place right of its window
	outgrew    bool // all ranges together outgrew cp
}

// spilled reports whether some range outgrew its window.
func (l layout) spilled() bool { return l.overflow > 0 }

// rangeLayout computes the layout of events (in the serial pre-sort or
// any order; only counts matter) across ranges client ranges.
func rangeLayout[E any](events []E, client func(E) int32, clients, ranges, cp int) layout {
	count := make([]int, ranges)
	for _, e := range events {
		r := ranges - 1
		for clients*r/ranges > int(client(e)) {
			r--
		}
		count[r]++
	}
	var l layout
	dst := 0
	for i, k := range count {
		off, end := cp*i/ranges, cp*(i+1)/ranges
		if k > end-off {
			l.overflow += k - (end - off)
		}
		l.boundRight = l.boundRight || dst > off
		dst += k
	}
	l.outgrew = dst > cp
	return l
}

// layouts returns the layouts of tr's flows and keepalives at every range
// count from 2 to 8.
func layouts(tr *Trace) []layout {
	ef, ek := expectedEvents(tr.Cfg)
	var out []layout
	for r := 2; r <= 8; r++ {
		out = append(out,
			rangeLayout(tr.Flows, func(f Flow) int32 { return f.Client }, tr.Cfg.Clients, r, ef),
			rangeLayout(tr.Keepalives, func(p Packet) int32 { return p.Client }, tr.Cfg.Clients, r, ek))
	}
	return out
}

// TestGenerateWorkersIdentical pins that trace generation is exact at any
// goroutine count: every worker count from 1 to 8 yields a trace
// reflect.DeepEqual to the serial one, on tie-heavy configs and on
// configs whose windows overflow (the compaction's hard case). Each case
// also checks that its config still covers what it is there for.
func TestGenerateWorkersIdentical(t *testing.T) {
	city := DefaultCityConfig(3)
	city.Clients, city.APs, city.Duration = 4096, 410, 1800

	resid := DefaultResidentialConfig(4096, 5)
	resid.Duration = 1800

	sym := DefaultCityConfig(4)
	sym.Clients, sym.APs, sym.Duration, sym.Symmetric = 4600, 460, 3600, true

	zipf := DefaultOfficeConfig(2)
	zipf.Clients, zipf.APs, zipf.Duration = 4096, 300, 3600

	tinySym := DefaultSimConfig(7)
	tinySym.Clients, tinySym.APs, tinySym.Duration, tinySym.Symmetric = 23, 5, 7200, true

	mid := DefaultCityConfig(9) // fewer clients than 8 workers' minimum
	mid.Clients, mid.APs, mid.Duration = 3*minRangeClients-1, 300, 1800

	// Four symmetric slots of 1000 clients each: per-range event counts
	// follow a handful of slot streams, far from expectedEvents' even
	// share. Seed 13 overflows windows while the total fits, so ranges
	// after the overflow compact right of their windows; seed 16 outgrows
	// the whole estimate.
	spill := DefaultCityConfig(13)
	spill.Clients, spill.APs, spill.Duration, spill.Symmetric = 4000, 1000, 3600, true
	outgrow := spill
	outgrow.Seed = 16

	cases := []struct {
		name  string
		cfg   Config
		check func(*Trace) bool
	}{
		{"city", city, func(tr *Trace) bool {
			// Streams of sessions online at t=0 all start at 0.
			return len(tr.Flows) > 1 && tr.Flows[1].Start == 0
		}},
		{"residential", resid, func(tr *Trace) bool {
			for i := 1; i < len(tr.Flows); i++ {
				if tr.Flows[i].Up && tr.Flows[i].Start == tr.Flows[i-1].Start {
					return true // an uplink ACK tied with its flow
				}
			}
			return false
		}},
		{"symmetric", sym, nil},
		{"zipf", zipf, nil},
		{"one-client", Config{Clients: 1, APs: 1, Duration: 3600, Profile: OfficeProfile, Seed: 1}, nil},
		{"tiny-symmetric", tinySym, nil},
		{"below-minimum", mid, func(*Trace) bool { return mid.Clients < 8*minRangeClients }},
		{"window-overflow", spill, func(tr *Trace) bool {
			for _, l := range layouts(tr) {
				if l.spilled() && l.boundRight && !l.outgrew {
					return true
				}
			}
			return false
		}},
		{"estimate-outgrown", outgrow, func(tr *Trace) bool {
			for _, l := range layouts(tr) {
				if l.outgrew {
					return true
				}
			}
			return false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := generate(tc.cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.check != nil && !tc.check(want) {
				t.Fatal("config no longer covers the case it is named for")
			}
			for w := 2; w <= 8; w++ {
				got, err := generate(tc.cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d workers: trace differs from the serial one (%d/%d flows, %d/%d keepalives)",
						w, len(got.Flows), len(want.Flows), len(got.Keepalives), len(want.Keepalives))
				}
			}
		})
	}
}

// TestGenerateParallelAllocs pins that range workers allocate almost no
// event storage beyond the serial generator's, at up to 8 workers on a
// city-shaped config where, as on the metro trace, the keepalive estimate
// is tight enough that a window overflows at 8 ranges. Each worker may
// add a constant (an RNG of ~5 KB, bookkeeping), and a range that
// outgrows its window may add a spill slice, which holds only the
// clients past the window: the allowance is a few times the bytes of the
// events past the window, for append's growth.
func TestGenerateParallelAllocs(t *testing.T) {
	cfg := DefaultCityConfig(1)
	cfg.Clients, cfg.APs, cfg.Duration = 32768, 3277, 1800
	bytes := func(workers int) (uint64, *Trace) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr, err := generate(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, tr
	}
	serial, tr := bytes(1)
	ls := layouts(tr)
	if l := ls[2*(8-2)+1]; !l.spilled() || l.outgrew {
		t.Fatal("no keepalive window overflows at 8 ranges on this config; the pin needs one that does")
	}
	for _, w := range []int{2, 4, 8} {
		got, _ := bytes(w)
		const perWorker = 16 << 10
		flows, keeps := ls[2*(w-2)], ls[2*(w-2)+1]
		spill := 4 * uint64(flows.overflow*int(unsafe.Sizeof(Flow{}))+keeps.overflow*int(unsafe.Sizeof(Packet{})))
		if got > serial+uint64(w)*perWorker+spill {
			t.Errorf("%d workers allocated %d bytes, serial %d: more than %d bytes per worker and %d for spills extra",
				w, got, serial, perWorker, spill)
		}
		t.Logf("%d workers: %d bytes (serial %d, %d flows and %d keepalives past their windows)",
			w, got, serial, flows.overflow, keeps.overflow)
	}
}
