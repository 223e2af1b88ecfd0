package trace

import (
	"math/rand"
	"sort"
	"testing"
)

// sortBothWays sorts copies of flows and keepalives with sortEvents and
// with the sort.Slice calls it replaced, and fails unless the results are
// element-wise identical — ties included.
func sortBothWays(t *testing.T, name string, flows []Flow, keeps []Packet) {
	t.Helper()
	got := &Trace{Flows: append([]Flow(nil), flows...), Keepalives: append([]Packet(nil), keeps...)}
	sortEvents(got)
	wf := append([]Flow(nil), flows...)
	wk := append([]Packet(nil), keeps...)
	sort.Slice(wf, func(i, j int) bool { return wf[i].Start < wf[j].Start })
	sort.Slice(wk, func(i, j int) bool { return wk[i].T < wk[j].T })
	for i := range wf {
		if got.Flows[i] != wf[i] {
			t.Fatalf("%s: flow %d = %+v, sort.Slice gives %+v", name, i, got.Flows[i], wf[i])
		}
	}
	for i := range wk {
		if got.Keepalives[i] != wk[i] {
			t.Fatalf("%s: keepalive %d = %+v, sort.Slice gives %+v", name, i, got.Keepalives[i], wk[i])
		}
	}
}

// TestSortEventsMatchesSortSlice pins that switching Generate's sorts to
// slices.SortFunc left every trace byte unchanged: the two sorts must
// break ties identically. Inputs cover insertion-sort sizes, pdqsort's
// pattern breaking and heavy tie runs (few distinct keys, each element
// tagged by its input position so any tie reordering shows).
func TestSortEventsMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 5, 12, 13, 50, 51, 129, 1000, 5000, 20000} {
		for _, keys := range []int{1, 3, 17, n/4 + 1, n + 1} {
			flows := make([]Flow, n)
			keeps := make([]Packet, n)
			for i := range flows {
				k := float64(r.Intn(keys))
				flows[i] = Flow{Start: k, Client: int32(i), Bytes: int64(r.Intn(3))}
				keeps[i] = Packet{T: k, Client: int32(i)}
			}
			sortBothWays(t, "random", flows, keeps)
			// Presorted and reversed runs exercise the partial-insertion
			// and pattern-breaking paths.
			sort.Slice(flows, func(i, j int) bool { return flows[i].Start < flows[j].Start })
			sortBothWays(t, "sorted", flows, keeps)
			for i, j := 0, len(flows)-1; i < j; i, j = i+1, j-1 {
				flows[i], flows[j] = flows[j], flows[i]
			}
			sortBothWays(t, "reversed", flows, keeps)
		}
	}

	// A generated city trace in Generate's own pre-sort order: client-major,
	// each client's events in the order genClient emitted them.
	cfg := DefaultCityConfig(3)
	cfg.Clients, cfg.APs, cfg.Duration = 5000, 500, 3*3600
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i := 1; i < len(tr.Flows); i++ {
		if tr.Flows[i].Start == tr.Flows[i-1].Start {
			ties++
		}
	}
	t.Logf("city trace: %d flows (%d tied starts), %d keepalives", len(tr.Flows), ties, len(tr.Keepalives))
	sort.SliceStable(tr.Flows, func(i, j int) bool { return tr.Flows[i].Client < tr.Flows[j].Client })
	sort.SliceStable(tr.Keepalives, func(i, j int) bool { return tr.Keepalives[i].Client < tr.Keepalives[j].Client })
	sortBothWays(t, "city", tr.Flows, tr.Keepalives)
}
