package kswitch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"insomnia/internal/dsl"
)

// rescanFullSwitch is the full-switch fabric by its definition: every edge
// flips the line's activity and then rescans all lines, moving each active
// line outside [0, active) onto the lowest free port of that range in
// ascending line order. It is the specification the O(1) FullSwitch edges
// are checked against.
type rescanFullSwitch struct{ *base }

func (f *rescanFullSwitch) OnWake(line int) {
	f.setActive(line, true)
	f.repack()
}

func (f *rescanFullSwitch) OnSleep(line int) {
	f.setActive(line, false)
	f.repack()
}

func (f *rescanFullSwitch) repack() {
	var movers []int
	n := f.activeN
	taken := make([]bool, n)
	for line := range f.portOf {
		if !f.active[line] {
			continue
		}
		if p := f.portOf[line]; p < n {
			taken[p] = true
		} else {
			movers = append(movers, line)
		}
	}
	next := 0
	for _, line := range movers {
		for taken[next] {
			next++
		}
		f.move(line, next)
		taken[next] = true
	}
}

// fullSwitchMatchesRescan builds a FullSwitch and a rescanFullSwitch on the
// same fabric and wiring, drives both through ops and compares them after
// every op. The raw parameters are folded into range: 1-6 cards of 1-8
// ports, 0..Ports() lines wired to a random subset of the ports (so there
// are often more ports than lines). Each op byte names a line (b>>1) and an
// edge (b&1: 0 wake, 1 sleep); with at most 48 lines and 128 line codes,
// repeated wakes and repeated sleeps of one line are common.
func fullSwitchMatchesRescan(cards, perCard, lines uint8, seed int64, ops []byte) error {
	d := dsl.DSLAM{Cards: 1 + int(cards)%6, PortsPerCard: 1 + int(perCard)%8}
	n := int(lines) % (d.Ports() + 1)
	initial := rand.New(rand.NewSource(seed)).Perm(d.Ports())[:n]
	fast, err := NewFullSwitch(d, initial)
	if err != nil {
		return err
	}
	b, err := newBase(d, initial)
	if err != nil {
		return err
	}
	ref := &rescanFullSwitch{b}
	if n == 0 {
		return nil
	}
	for i, op := range ops {
		line, wake := int(op>>1)%n, op&1 == 0
		if wake {
			fast.OnWake(line)
			ref.OnWake(line)
		} else {
			fast.OnSleep(line)
			ref.OnSleep(line)
		}
		where := fmt.Sprintf("%v, %d lines, op %d (line %d, wake %v)", d, n, i, line, wake)
		if fast.ActiveLines() != ref.ActiveLines() {
			return fmt.Errorf("%s: active lines %d, rescan %d", where, fast.ActiveLines(), ref.ActiveLines())
		}
		if fast.AwakeCardCount() != ref.AwakeCardCount() {
			return fmt.Errorf("%s: awake cards %d, rescan %d", where, fast.AwakeCardCount(), ref.AwakeCardCount())
		}
		if got := AwakeCount(fast.CardsAwake()); got != fast.AwakeCardCount() {
			return fmt.Errorf("%s: %d cards awake, count says %d", where, got, fast.AwakeCardCount())
		}
		for l := 0; l < n; l++ {
			p := fast.PortOf(l)
			if p != ref.PortOf(l) {
				return fmt.Errorf("%s: line %d on port %d, rescan %d", where, l, p, ref.PortOf(l))
			}
			if fast.active[l] != (p < fast.ActiveLines()) {
				return fmt.Errorf("%s: line %d (active %v) on port %d outside the prefix invariant [0, %d)",
					where, l, fast.active[l], p, fast.ActiveLines())
			}
		}
	}
	return nil
}

func FuzzFullSwitchMatchesRescan(f *testing.F) {
	f.Add(uint8(3), uint8(11), uint8(48), int64(1), []byte{0, 2, 4, 0, 2, 3, 3, 5, 1, 0, 6, 8, 2})
	f.Add(uint8(5), uint8(3), uint8(10), int64(7), []byte{0, 0, 1, 1, 2, 4, 6, 8, 10, 12, 3, 7, 11})
	f.Add(uint8(0), uint8(0), uint8(1), int64(0), []byte{0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, cards, perCard, lines uint8, seed int64, ops []byte) {
		if err := fullSwitchMatchesRescan(cards, perCard, lines, seed, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFullSwitchMatchesRescan is the seeded default-run form of
// FuzzFullSwitchMatchesRescan.
func TestFullSwitchMatchesRescan(t *testing.T) {
	check := func(cards, perCard, lines uint8, seed int64, ops []byte) bool {
		err := fullSwitchMatchesRescan(cards, perCard, lines, seed, ops)
		if err != nil {
			t.Error(err)
		}
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// A wake and a sleep that each move a line allocate nothing.
func TestFullSwitchEdgesDoNotAllocate(t *testing.T) {
	f, err := NewFullSwitch(dsl.EvalDSLAM, seqPorts(48))
	if err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 10; line++ {
		f.OnWake(line)
	}
	allocs := testing.AllocsPerRun(200, func() {
		// The sleeping line on the last port moves down onto the new top
		// of the prefix; sleeping the line on port 0 then moves that top
		// line into the hole.
		f.OnWake(f.lineAt[47])
		f.OnSleep(f.lineAt[0])
	})
	if allocs != 0 {
		t.Errorf("%v allocations per OnWake+OnSleep pair, want 0", allocs)
	}
}
