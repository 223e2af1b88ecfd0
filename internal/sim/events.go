package sim

// event kinds.
const (
	evComplete = iota // flow completion check on gateway A
	evGwCheck         // gateway A state transition due
	evDecide          // BH2 decision for client A
	evTick            // metric sampling + estimator observation
	evResolve         // Optimal re-solve (aux 1: one-shot failure reaction)
	evFail            // gateway A loses power (failure injection)
	evRecover         // gateway A rebooted and is operative again
)

// kindBits is the width of the kind field packed under the sequence
// number in event.key.
const kindBits = 3

// event is one heap entry, packed into 24 bytes: the heap moves events on
// every sift step, so its size sets how many cache lines a pop touches.
// Gateway and client ids fit a (they are int32 in the trace and shard
// maps too).
type event struct {
	t float64
	// key is seq<<kindBits | kind. seq is the lane's strictly increasing
	// push counter (the FIFO tie-break), so comparing keys compares seqs.
	key uint64
	a   int32
	// aux is the completion epoch for evComplete staleness (see
	// gateway.bumpEpoch) and the one-shot flag for evResolve.
	aux uint32
}

func (e *event) kind() int  { return int(e.key & (1<<kindBits - 1)) }
func (e *event) seq() int64 { return int64(e.key >> kindBits) }

// eventHeap is an inlined 4-ary min-heap over event values ordered by
// (t, seq). The engine pushes and pops one event per simulated occurrence,
// so this structure is the hottest path in the simulator; compared with
// container/heap it avoids the interface boxing on every Push/Pop (one heap
// allocation per event) and the Less/Swap indirect calls, and the 4-ary
// layout halves the tree depth so sift-down touches fewer cache lines.
// Both sift directions move a hole instead of swapping, writing each
// displaced event once.
//
// (t, seq) keys are totally ordered in practice — the engine's seq counter
// is strictly increasing — so any correct heap yields the same pop order;
// events_test.go pins that against a container/heap reference.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// before reports strict (t, seq) ordering — the single comparison both
// sift directions specialize on.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.key < b.key)
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		i = p
	}
	h.ev[i] = e
}

func (h *eventHeap) pop() event {
	root := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev = h.ev[:n]
	if n == 0 {
		return root
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h.ev[j].before(&h.ev[m]) {
				m = j
			}
		}
		if !h.ev[m].before(&last) {
			break
		}
		h.ev[i] = h.ev[m]
		i = m
	}
	h.ev[i] = last
	return root
}
