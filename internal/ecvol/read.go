package ecvol

import (
	"fmt"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/fsm"
)

// ReadMode says how a chunk read was served.
type ReadMode uint8

const (
	// Direct reads hit the chunk's owning data shard.
	Direct ReadMode = iota
	// Steered reads were reconstructed from other shards because the
	// owner was predicted high-latency or mid storm — the
	// reconstruct-over-wait path.
	Steered
	// Reconstructed reads had no choice: the owner was quarantined,
	// fail-stopped, stale from a degraded write, or the direct attempt
	// failed outright.
	Reconstructed
)

var readModeNames = fsm.NewNames[ReadMode]("ReadMode", "ecvol: unknown read mode",
	"direct", "steered", "reconstruct")

func (m ReadMode) String() string { return readModeNames.String(m) }

// MarshalJSON renders the mode as its name.
func (m ReadMode) MarshalJSON() ([]byte, error) { return readModeNames.Quote(m) }

// UnmarshalJSON parses the name form MarshalJSON writes, byte for byte:
// an escaped spelling of a name is not accepted.
func (m *ReadMode) UnmarshalJSON(b []byte) error {
	if n := len(b); n < 2 || b[0] != '"' || b[n-1] != '"' || readModeNames.Parse(m, string(b[1:n-1])) != nil {
		return fmt.Errorf("ecvol: unknown read mode %s", b)
	}
	return nil
}

// ReadResult is one served chunk read.
type ReadResult struct {
	// Value is the chunk fingerprint — always the latest written
	// value, whichever shards served it.
	Value uint64 `json:"value"`
	// Mode says which path served the read.
	Mode ReadMode `json:"mode"`
	// Latency is the foreground service time: the direct read, or the
	// slowest donor of the reconstruct batch (donors run in parallel;
	// staged parity served from the deferral buffer costs nothing).
	Latency time.Duration `json:"latency_ns"`
}

// donor is one reconstruct candidate, ranked by risk.
type donor struct {
	slot  int // stripe slot, 0..m+k-1
	dev   int // member-device index
	score int // 0 clean, +1 conservative model, +2 predicted-HL/storm
}

// refreshSteeringLocked pulls the fleet's cached steering snapshots
// into the volume's member-indexed view, in place. A member the fleet
// no longer holds keeps its last snapshot.
func (v *Volume) refreshSteeringLocked() {
	v.fl.SteeringInto(v.cfg.Devices, v.snaps)
}

// Read serves logical chunk `chunk`, verified against the volume's
// write history by construction: the returned Value is reconstructed
// from shard state that the Reed-Solomon invariant ties to the latest
// Write. The caller holds no locks; the volume serializes internally.
func (v *Volume) Read(chunk int64) (ReadResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ReadResult{}, ErrClosed
	}
	if chunk < 0 || chunk >= v.Chunks() {
		return ReadResult{}, fmt.Errorf("%w: chunk %d of %d", ErrOutOfRange, chunk, v.Chunks())
	}
	stripe := int(chunk / int64(v.cfg.Data))
	slot := int(chunk % int64(v.cfg.Data))
	st := &v.stripes[stripe]
	v.stats.Reads++

	v.refreshSteeringLocked()
	owner := v.place.device(stripe, slot)
	snap := v.snaps[owner]

	res := ReadResult{Value: st.data[slot]}
	switch {
	case !snap.Available || st.dataStale[slot]:
		// No serviceable owner: reconstruction is the only path.
		lat, err := v.reconstructLocked(stripe, slot)
		if err != nil {
			v.stats.ReadErrors++
			return ReadResult{}, err
		}
		res.Mode, res.Latency = Reconstructed, lat

	case v.cfg.Predictive && snap.Risky():
		// Reconstruct-over-wait: the owner is predicted-HL (GC or
		// flush window pending) or mid observed-HL streak (storm);
		// reading m other shards in parallel beats waiting it out.
		lat, err := v.reconstructLocked(stripe, slot)
		if err == nil {
			res.Mode, res.Latency = Steered, lat
			break
		}
		// Not enough healthy donors — waiting on the slow owner is
		// still better than failing the read.
		fallthrough

	default:
		out, err := v.submitOne(owner, blockdev.Read, stripe)
		if err != nil {
			v.stats.ReadErrors++
			return ReadResult{}, err
		}
		if out.Err != nil {
			// The direct attempt failed under us (fault newer than the
			// steering snapshot); fall back to reconstruction.
			lat, rerr := v.reconstructLocked(stripe, slot)
			if rerr != nil {
				v.stats.ReadErrors++
				return ReadResult{}, fmt.Errorf("direct read failed (%v); %w", out.Err, rerr)
			}
			res.Mode, res.Latency = Reconstructed, lat+out.Latency
			break
		}
		res.Mode, res.Latency = Direct, out.Latency
	}

	switch res.Mode {
	case Direct:
		v.stats.DirectReads++
	case Steered:
		v.stats.SteeredReads++
	case Reconstructed:
		v.stats.ReconstructReads++
	}
	v.hRead.Observe(res.Latency)
	v.scheduleLocked()
	return res, nil
}

// reconstructLocked assembles m shards other than `skip` and decodes
// the stripe, returning the foreground latency (the slowest donor of
// each read batch). Parity shards whose flush is still deferred are
// served straight from the staging buffer — a free, riskless donor, and
// the reason deferral never taxes the reconstruct path. It never
// returns a wrong value: device donors are eligible only while their
// on-device bytes match the current logical stripe, and staged parity
// is recomputed from it.
func (v *Volume) reconstructLocked(stripe, skip int) (time.Duration, error) {
	st := &v.stripes[stripe]
	var total time.Duration

	// Candidate donors. Staged parity is consumed immediately (no
	// device I/O); device shards are ranked least risky first, with
	// unavailable or stale shards out entirely.
	slots := v.scratchSlots[:0]
	vals := v.scratchVals[:0]
	rank := v.scratchRank[:0]
	width := v.cfg.Data + v.cfg.Parity
	for s := 0; s < width; s++ {
		if s == skip {
			continue
		}
		if s < v.cfg.Data && st.dataStale[s] {
			continue
		}
		if s >= v.cfg.Data {
			r := s - v.cfg.Data
			if st.parityDead[r] {
				continue
			}
			if st.parityStale {
				if len(slots) < v.cfg.Data {
					slots = append(slots, s)
					vals = append(vals, v.cod.parityRow(r, st.data))
				}
				continue
			}
		}
		dev := v.place.device(stripe, s)
		snap := v.snaps[dev]
		if !snap.Available {
			continue
		}
		score := 0
		if snap.Conservative {
			score++
		}
		if snap.Risky() {
			score += 2
		}
		rank = append(rank, donor{slot: s, dev: dev, score: score})
	}
	v.scratchRank = rank
	// Stable insertion sort by score: at most m+k-1 donors.
	for i := 1; i < len(rank); i++ {
		d := rank[i]
		j := i
		for ; j > 0 && rank[j-1].score > d.score; j-- {
			rank[j] = rank[j-1]
		}
		rank[j] = d
	}

	next := 0
	for len(slots) < v.cfg.Data {
		need := v.cfg.Data - len(slots)
		if next+need > len(rank) {
			v.scratchSlots, v.scratchVals = slots, vals
			return total, fmt.Errorf("%w: stripe %d has %d readable shards, need %d",
				ErrStripeLost, stripe, len(slots)+len(rank)-next, v.cfg.Data)
		}
		batch := rank[next : next+need]
		next += need
		v.scratchReqs = v.scratchReqs[:0]
		for _, d := range batch {
			v.scratchReqs = append(v.scratchReqs, fleet.Request{
				DeviceID: v.cfg.Devices[d.dev],
				Op:       blockdev.Read,
				LBA:      v.deviceLBA(stripe),
				Sectors:  v.cfg.ChunkSectors,
			})
		}
		out, err := v.submitLocked()
		if err != nil {
			v.scratchSlots, v.scratchVals = slots, vals
			return total, err
		}
		var worst time.Duration
		for i, r := range out {
			if r.Latency > worst {
				worst = r.Latency
			}
			if r.Err != nil {
				// Donor failed under us; the next loop round draws a
				// replacement from the remaining ranking.
				v.stats.DonorRetries++
				continue
			}
			v.note(r.CompletedAt)
			d := batch[i]
			slots = append(slots, d.slot)
			if d.slot < v.cfg.Data {
				vals = append(vals, st.data[d.slot])
			} else {
				vals = append(vals, st.parity[d.slot-v.cfg.Data])
			}
		}
		total += worst
	}
	v.scratchSlots, v.scratchVals = slots, vals

	decoded := v.scratchDecoded
	if err := v.cod.decode(slots, vals, decoded); err != nil {
		return total, err
	}
	// The decode must reproduce the logical stripe exactly — anything
	// else means the parity invariant broke, which is a bug, not an
	// I/O condition.
	for j, want := range st.data {
		if decoded[j] != want {
			panic(fmt.Sprintf("ecvol: stripe %d decode mismatch at slot %d: got %#x want %#x",
				stripe, j, decoded[j], want))
		}
	}
	return total, nil
}
