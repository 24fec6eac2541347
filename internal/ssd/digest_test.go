package ssd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"ssdcheck/internal/trace"
)

// TestPinnedPresetDeviceDigest pins the simulator itself, bit for bit:
// presets A–H and X, seed 42, preconditioned, then 200 000 RWMixed and
// 50 000 TPCE (multi-page) requests through SubmitTagged. The digest
// covers every (done, cause) pair and the final per-volume counters.
// The constants were generated on the commit that still carried the
// epoch-stamped buffer-membership arrays (1ce9c60) and must never move:
// a change to the FTL's data structures that alters one completion time
// fails here, without a benchmark run to compare sim_digest.
func TestPinnedPresetDeviceDigest(t *testing.T) {
	pinned := []struct {
		preset string
		digest uint64
	}{
		{"A", 0xf96b9eca1ebd3ec9},
		{"B", 0x66eb396d23ce9f72},
		{"C", 0xb78900619bf96aca},
		{"D", 0x82a8d2e4d92b9dca},
		{"E", 0x6cb364edb7595b17},
		{"F", 0x909d49de07657e19},
		{"G", 0x6810f45a5655d57c},
		{"H", 0x895147b68328f7dc},
		{"X", 0xd7273763b584d162},
	}
	const seed = 42
	streams := []struct {
		spec trace.Spec
		n    int
	}{{trace.RWMixed, 200_000}, {trace.TPCE, 50_000}}
	for _, pin := range pinned {
		t.Run(pin.preset, func(t *testing.T) {
			cfg, err := Preset(pin.preset, seed)
			if err != nil {
				t.Fatal(err)
			}
			dev := MustNew(cfg)
			now := trace.Precondition(dev, seed, 1.2, 0)
			h := fnv.New64a()
			var rec [9]byte
			for _, s := range streams {
				g := trace.NewGenerator(s.spec, dev.CapacitySectors(), seed)
				for i := 0; i < s.n; i++ {
					done, cause := dev.SubmitTagged(g.Next(), now)
					binary.LittleEndian.PutUint64(rec[:8], uint64(done))
					rec[8] = byte(cause)
					h.Write(rec[:])
					now = done
				}
			}
			for i := 0; i < dev.Volumes(); i++ {
				fmt.Fprintf(h, "%+v", dev.VolumeStats(i))
			}
			if got := h.Sum64(); got != pin.digest {
				t.Errorf("preset %s: digest %#016x, pinned %#016x", pin.preset, got, pin.digest)
			}
		})
	}
}
