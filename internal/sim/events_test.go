package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"insomnia/internal/stats"
)

// refEvent is the pre-packing event layout: every field in its own word.
type refEvent struct {
	t    float64
	seq  int64
	kind int
	a    int
	aux  uint32
}

// refHeap is the pre-refactor container/heap implementation over the wide
// layout, kept here as the differential-test reference for the packed
// 4-ary heap.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// unpack reads a packed event back into the wide layout.
func unpack(e event) refEvent {
	return refEvent{t: e.t, seq: e.seq(), kind: e.kind(), a: int(e.a), aux: e.aux}
}

// heapPair drives a lane's packed heap and the wide reference in step.
type heapPair struct {
	sh   shard
	want refHeap
}

// push queues one random event on both heaps. Coarse-grained times force
// plenty of t-ties; seq, as in the engine, stays strictly increasing and
// breaks them. Kinds cover every event kind; a and aux span their full
// ranges, so the packing must round-trip every field.
func (p *heapPair) push(r *rand.Rand, t float64) {
	kind := r.Intn(evRecover + 1)
	a := r.Intn(64)
	if r.Intn(4) == 0 {
		a = math.MaxInt32 - r.Intn(64)
	}
	aux := r.Uint32()
	p.sh.push(t, kind, a, aux)
	heap.Push(&p.want, refEvent{t: t, seq: p.sh.seq, kind: kind, a: a, aux: aux})
}

func (p *heapPair) pop(tb testing.TB, what string) {
	tb.Helper()
	g := unpack(p.sh.h.pop())
	w := heap.Pop(&p.want).(refEvent)
	if g != w {
		tb.Fatalf("%s: pop mismatch: %+v != %+v", what, g, w)
	}
}

// TestEventPacking pins the packed layout's size.
func TestEventPacking(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
	if evRecover >= 1<<kindBits {
		t.Fatalf("event kinds overflow the %d-bit kind field", kindBits)
	}
}

// TestHeapDifferential drives the packed 4-ary heap and container/heap with
// the same interleaved random push/pop stream and requires identical pop
// sequences, field for field, including among time-tied events.
func TestHeapDifferential(t *testing.T) {
	r := stats.NewRNG(7, 0x4ea)
	var p heapPair
	for round := 0; round < 20000; round++ {
		if p.want.Len() == 0 || r.Float64() < 0.55 {
			p.push(r, float64(r.Intn(200)))
		} else {
			p.pop(t, "interleaved")
		}
	}
	for p.want.Len() > 0 {
		p.pop(t, "drain")
	}
	if p.sh.h.len() != 0 {
		t.Fatalf("4-ary heap retains %d events after drain", p.sh.h.len())
	}
}

// TestHeapFenceDifferential replays the sharded engine's phases: snapshot
// the lane's seq as the fence seq, push more events (some exactly at the
// fence time), then pop while the head is admitted. A head at the fence
// time is admitted iff it was pushed before the phase began; admits on the
// packed heap must take exactly the reference's events in its order.
func TestHeapFenceDifferential(t *testing.T) {
	r := stats.NewRNG(11, 0xfe)
	var p heapPair
	lo := 0.0
	for phase := 0; phase < 2000; phase++ {
		fence := lo + float64(r.Intn(8))
		p.sh.fenceSeq = p.sh.seq
		for i := r.Intn(12); i > 0; i-- {
			tm := fence
			if r.Intn(2) == 0 {
				tm = lo + float64(r.Intn(16))
			}
			p.push(r, tm)
		}
		for p.want.Len() > 0 {
			w := p.want[0]
			wantIn := w.t < fence || (w.t == fence && w.seq <= p.sh.fenceSeq)
			if gotIn := p.sh.admits(&p.sh.h.ev[0], fence); gotIn != wantIn {
				t.Fatalf("phase %d: head %+v admitted=%v, reference %v", phase, unpack(p.sh.h.ev[0]), gotIn, wantIn)
			}
			if !wantIn {
				break
			}
			p.pop(t, "phase")
		}
		lo = fence
	}
}

// TestHeapDuplicateKeys pins behavior when (t, seq) keys collide exactly:
// both heaps must still agree on the popped key sequence.
func TestHeapDuplicateKeys(t *testing.T) {
	var got eventHeap
	var want refHeap
	for i := 0; i < 100; i++ {
		e := event{t: float64(i % 3), key: uint64(i%2)<<kindBits | uint64(i%(evRecover+1))}
		got.push(e)
		heap.Push(&want, unpack(e))
	}
	for want.Len() > 0 {
		g := got.pop()
		w := heap.Pop(&want).(refEvent)
		if g.t != w.t || g.seq() != w.seq {
			t.Fatalf("duplicate-key pop order diverged: (%v,%d) != (%v,%d)", g.t, g.seq(), w.t, w.seq)
		}
	}
}

// TestHeapSteadyStateAllocs pins the zero-allocation contract: once the
// backing array has grown, pushing and popping events allocates nothing.
func TestHeapSteadyStateAllocs(t *testing.T) {
	var h eventHeap
	for i := 0; i < 1024; i++ {
		h.push(event{t: float64(1024 - i), key: uint64(i) << kindBits})
	}
	for h.len() > 256 {
		h.pop()
	}
	seq := uint64(2000)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			seq++
			h.push(event{t: float64(seq % 97), key: seq << kindBits})
		}
		for i := 0; i < 64; i++ {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per run, want 0", allocs)
	}
}
