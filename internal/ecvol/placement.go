package ecvol

import "ssdcheck/internal/simclock"

// placement maps (stripe, slot) pairs to fleet devices. The volume may
// span more devices than one stripe uses (n ≥ m+k); each stripe's
// m data + k parity shards land on a rotated window of a seeded
// permutation of the members, so load — and the parity-write penalty —
// spreads evenly across the group instead of pinning k devices as
// dedicated parity targets. The mapping is a pure function of the
// member list and the seed: same config, same layout, on every run.
type placement struct {
	n     int   // member devices
	width int   // m + k, shards per stripe
	perm  []int // seeded permutation of [0, n)
}

func newPlacement(n, width int, seed uint64) *placement {
	// Fisher-Yates from the volume's private RNG stream.
	return &placement{n: n, width: width, perm: simclock.NewRNG(seed ^ 0xec70).Perm(n)}
}

// device returns the member-device index serving slot (0..width-1) of
// stripe s. Slots 0..m-1 are data, m..width-1 parity.
func (p *placement) device(stripe, slot int) int {
	return p.perm[(stripe+slot)%p.n]
}
