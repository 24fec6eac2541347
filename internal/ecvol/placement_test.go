package ecvol

import "testing"

// TestPlacementDistinct: a stripe's width shards land on width distinct
// devices — slot windows over a permutation cannot repeat within a
// window shorter than the group.
func TestPlacementDistinct(t *testing.T) {
	for _, tc := range []struct{ n, width int }{{5, 5}, {6, 5}, {9, 4}, {12, 7}} {
		p := newPlacement(tc.n, tc.width, 42)
		for stripe := 0; stripe < 3*tc.n; stripe++ {
			seen := make(map[int]bool, tc.width)
			for slot := 0; slot < tc.width; slot++ {
				d := p.device(stripe, slot)
				if d < 0 || d >= tc.n {
					t.Fatalf("n=%d stripe %d slot %d: device %d out of range", tc.n, stripe, slot, d)
				}
				if seen[d] {
					t.Fatalf("n=%d stripe %d: device %d serves two slots", tc.n, stripe, d)
				}
				seen[d] = true
			}
		}
	}
}

// TestPlacementDeterministic: same seed, same layout; different seed,
// (almost surely) different layout.
func TestPlacementDeterministic(t *testing.T) {
	a := newPlacement(8, 5, 7)
	b := newPlacement(8, 5, 7)
	c := newPlacement(8, 5, 8)
	same := true
	for s := 0; s < 16; s++ {
		for slot := 0; slot < 5; slot++ {
			if a.device(s, slot) != b.device(s, slot) {
				t.Fatalf("stripe %d slot %d differs under equal seeds", s, slot)
			}
			if a.device(s, slot) != c.device(s, slot) {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical layouts")
	}
}

// TestPlacementSlotOf: slotOf inverts device, and reports -1 for
// devices a stripe does not touch.
func TestPlacementSlotOf(t *testing.T) {
	p := newPlacement(7, 4, 3)
	for stripe := 0; stripe < 14; stripe++ {
		touched := make(map[int]int, 4)
		for slot := 0; slot < 4; slot++ {
			touched[p.device(stripe, slot)] = slot
		}
		for d := 0; d < 7; d++ {
			want, ok := touched[d]
			if !ok {
				want = -1
			}
			if got := p.slotOf(stripe, d); got != want {
				t.Fatalf("stripe %d device %d: slotOf = %d, want %d", stripe, d, got, want)
			}
		}
	}
}

// slotOf returns which slot of stripe s lands on member device d, or
// -1 when the stripe does not touch d.
func (p *placement) slotOf(stripe, d int) int {
	for slot := 0; slot < p.width; slot++ {
		if p.device(stripe, slot) == d {
			return slot
		}
	}
	return -1
}
