// Package ecvol is the prediction-aware erasure-coded volume: a
// striped m+k volume layered over internal/fleet devices that closes
// the loop between SSDcheck's per-device HL/NL predictions and the
// redundant I/O a storage group already pays for.
//
// Three decisions consult the fleet's steering snapshots
// (fleet.SteeringSnapshot — HL prediction, model health, observed
// high-latency streaks):
//
//   - Read planning: a read whose owning shard is predicted-HL (a GC
//     or flush window pending, or mid latency-storm) is served by a
//     reconstruct-read from the m least-risky other shards instead of
//     waiting out the stall — reconstruct-over-wait.
//   - Parity scheduling: writes update the data shard in the
//     foreground but stage parity in memory, flushing it
//     opportunistically into predicted-HL windows on the parity
//     devices (hl_window: the background write rides the slow window
//     foreground reads are being steered around), bounded by a
//     durability budget: a deadline on the virtual clock (deadline), a
//     cap on staged stripes (budget), and forced flushes when a parity
//     device leaves the healthy state (health), after a degraded data
//     write (degraded_write), and on Flush or Close (force). The
//     oblivious baseline writes parity inline with the data (inline).
//   - Degraded placement: quarantined devices are never selected;
//     conservative (fallback-model) devices rank last among donors.
//
// Chunk payloads are modeled as 64-bit fingerprints (Fingerprint), so
// every read is verified end to end against the value the write path
// computed — the integrity half of the headline experiment — without
// simulating data bytes.
//
// A Volume serializes its operations with one mutex, so the daemon can
// share it across handlers; determinism across fleet shard counts
// holds because operations are closed-loop and every steering read
// happens between completed requests.
package ecvol

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// Typed failures, errors.Is-compatible.
var (
	// ErrStripeLost rejects a read whose stripe has fewer than m
	// readable shards left — beyond the code's redundancy.
	ErrStripeLost = errors.New("ecvol: stripe beyond redundancy")
	// ErrOutOfRange rejects addresses outside the volume.
	ErrOutOfRange = errors.New("ecvol: address out of range")
	// ErrClosed rejects operations on a detached volume.
	ErrClosed = errors.New("ecvol: volume closed")
)

// Config parameterizes a volume.
type Config struct {
	// ID names the volume in metrics and the daemon API.
	ID string `json:"id"`

	// Devices lists the member fleet device IDs. len(Devices) must be
	// at least Data+Parity; wider groups rotate stripes across the
	// members.
	Devices []string `json:"devices"`

	// Data (m) and Parity (k) are the stripe geometry. Any m of the
	// m+k shards reconstruct a stripe.
	Data   int `json:"data"`
	Parity int `json:"parity"`

	// ChunkSectors is the sectors per chunk (the striping unit). 0
	// defaults to one page (blockdev.SectorsPerPage).
	ChunkSectors int `json:"chunk_sectors,omitempty"`

	// Stripes is the stripe count; logical capacity is
	// Stripes·Data·ChunkSectors sectors. Each member device must have
	// Stripes·ChunkSectors sectors of capacity.
	Stripes int `json:"stripes"`

	// Seed drives the placement permutation and the chunk
	// fingerprints.
	Seed uint64 `json:"seed"`

	// Predictive enables HL-steered reads and deferred parity. False
	// is the oblivious baseline: reads always go to the owning shard
	// (reconstructing only on hard failure), parity writes happen
	// inline in the foreground.
	Predictive bool `json:"predictive"`

	// MaxPendingStripes is the parity-deferral durability budget: the
	// scheduler force-flushes oldest-first before the staged-stripe
	// count exceeds it. 0 defaults to 8.
	MaxPendingStripes int `json:"max_pending_stripes,omitempty"`

	// MaxDeferral bounds how long (virtual) a stripe's parity may stay
	// staged before a forced flush. 0 defaults to 2ms. On the wire it
	// travels as nanoseconds, like every duration in the daemon API.
	MaxDeferral time.Duration `json:"max_deferral_ns,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = "ecvol"
	}
	if c.ChunkSectors == 0 {
		c.ChunkSectors = blockdev.SectorsPerPage
	}
	if c.MaxPendingStripes == 0 {
		c.MaxPendingStripes = 8
	}
	if c.MaxDeferral == 0 {
		c.MaxDeferral = 2 * time.Millisecond
	}
	return c
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	c2 := c.withDefaults()
	if c.Data < 1 || c.Parity < 1 {
		return fmt.Errorf("ecvol: geometry needs data ≥ 1 and parity ≥ 1, got %d+%d", c.Data, c.Parity)
	}
	if c.Data+c.Parity > 255 {
		return fmt.Errorf("ecvol: geometry %d+%d exceeds GF(2^8) shard limit", c.Data, c.Parity)
	}
	if len(c.Devices) < c.Data+c.Parity {
		return fmt.Errorf("ecvol: %d member devices for a %d+%d stripe", len(c.Devices), c.Data, c.Parity)
	}
	seen := make(map[string]bool, len(c.Devices))
	for _, id := range c.Devices {
		if id == "" {
			return fmt.Errorf("ecvol: empty member device ID")
		}
		if seen[id] {
			return fmt.Errorf("ecvol: duplicate member device %q", id)
		}
		seen[id] = true
	}
	if c.Stripes < 1 {
		return fmt.Errorf("ecvol: need at least one stripe, got %d", c.Stripes)
	}
	if c2.ChunkSectors < 1 {
		return fmt.Errorf("ecvol: negative chunk size %d", c.ChunkSectors)
	}
	if c.MaxPendingStripes < 0 || c.MaxDeferral < 0 {
		return fmt.Errorf("ecvol: negative parity-deferral budget")
	}
	return nil
}

// Fingerprint is the modeled content of logical chunk `chunk` after its
// version-th write: a splitmix64-style mix of the volume seed, the
// chunk index and the write count. The write path stores it, the read
// path returns and verifies it, and external drivers recompute it to
// check integrity end to end.
func Fingerprint(seed, chunk uint64, version uint32) uint64 {
	x := seed ^ chunk*0x9e3779b97f4a7c15 ^ (uint64(version)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stripeState is one stripe's durability bookkeeping.
type stripeState struct {
	data    []uint64 // current logical fingerprints, len m
	version []uint32 // writes per data chunk
	devData []uint64 // fingerprints durably on the data shards
	parity  []uint64 // fingerprints durably on the parity shards, len k

	dataStale   []bool // devData diverges (failed degraded write)
	parityStale bool   // parity shards predate the latest data write
	parityDead  []bool // parity shard on a fail-stopped device

	flushBy simclock.Time // forced-flush deadline while parityStale
}

// Volume is one erasure-coded volume over a fleet.
type Volume struct {
	mu     sync.Mutex
	cfg    Config
	fl     *fleet.Manager
	cod    *codec
	place  *placement
	closed bool

	stripes []stripeState
	pending []int // stripes with staged parity, oldest first

	// snaps is the member-indexed steering view (snaps[i] is
	// cfg.Devices[i]), refreshed in place before each planning decision.
	snaps []fleet.SteeringSnapshot

	// vnow is the volume's virtual progress: the latest completion
	// seen on any member. Parity deadlines are phrased against it.
	vnow simclock.Time

	stats Stats

	// Registry histograms (volume-labeled). The read, flush and
	// staged-parity series read stats and pending when rendered.
	hRead  *obs.Histogram
	hWrite *obs.Histogram
	hFlush *obs.Histogram

	// Scratch buffers for the per-op hot paths, so a read or write
	// allocates nothing once they have grown to the op's shape.
	scratchReqs    []fleet.Request
	scratchOut     []fleet.Result
	scratchSlots   []int
	scratchWork    []int
	scratchVals    []uint64
	scratchDecoded []uint64
	scratchRank    []donor
}

// flush causes, in the order Stats reports them.
const (
	causeInline   = "inline"
	causeHLWindow = "hl_window"
	causeDeadline = "deadline"
	causeBudget   = "budget"
	causeDegraded = "degraded_write"
	causeHealth   = "health"
	causeForce    = "force"
)

var flushCauses = []string{causeInline, causeHLWindow, causeDeadline, causeBudget, causeDegraded, causeHealth, causeForce}

// New builds a volume over fl's devices. Every member must exist in
// the fleet and have capacity for Stripes·ChunkSectors sectors. The
// initial image is the version-0 fingerprint of every chunk with
// matching parity, so reads verify from the first request on.
func New(fl *fleet.Manager, cfg Config) (*Volume, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, id := range cfg.Devices {
		if _, ok := fl.Device(id); !ok {
			return nil, fmt.Errorf("ecvol: member device %q: %w", id, fleet.ErrUnknownDevice)
		}
	}
	cod, err := newCodec(cfg.Data, cfg.Parity)
	if err != nil {
		return nil, err
	}
	v := &Volume{
		cfg:            cfg,
		fl:             fl,
		cod:            cod,
		place:          newPlacement(len(cfg.Devices), cfg.Data+cfg.Parity, cfg.Seed),
		snaps:          make([]fleet.SteeringSnapshot, len(cfg.Devices)),
		scratchOut:     make([]fleet.Result, cfg.Data+cfg.Parity),
		scratchDecoded: make([]uint64, cfg.Data),
	}
	v.stats = Stats{
		ID:            cfg.ID,
		Predictive:    cfg.Predictive,
		ParityFlushes: make(map[string]int64, len(flushCauses)),
	}
	v.stripes = make([]stripeState, cfg.Stripes)
	for s := range v.stripes {
		st := &v.stripes[s]
		st.data = make([]uint64, cfg.Data)
		st.version = make([]uint32, cfg.Data)
		st.devData = make([]uint64, cfg.Data)
		st.dataStale = make([]bool, cfg.Data)
		st.parity = make([]uint64, cfg.Parity)
		st.parityDead = make([]bool, cfg.Parity)
		for j := range st.data {
			fp := Fingerprint(cfg.Seed, v.chunkIndex(s, j), 0)
			st.data[j] = fp
			st.devData[j] = fp
		}
		cod.encode(st.data, st.parity)
	}
	v.bindMetrics(fl.Registry())
	return v, nil
}

func (v *Volume) bindMetrics(reg *obs.Registry) {
	vol := obs.Label{Name: "volume", Value: v.cfg.ID}
	read := func(n func() int64) func() int64 { return obs.Locked(&v.mu, n) }
	for mode, n := range []*int64{&v.stats.DirectReads, &v.stats.SteeredReads, &v.stats.ReconstructReads} {
		reg.CounterFunc("ssdcheck_ecvol_reads_total", "Chunk reads by volume and serving mode.",
			read(func() int64 { return *n }), vol, obs.Label{Name: "mode", Value: ReadMode(mode).String()})
	}
	for _, c := range flushCauses {
		reg.CounterFunc("ssdcheck_ecvol_parity_flush_total", "Parity-flush batches by volume and cause.",
			read(func() int64 { return v.stats.ParityFlushes[c] }), vol, obs.Label{Name: "cause", Value: c})
	}
	reg.GaugeFunc("ssdcheck_ecvol_pending_parity", "Stripes with staged (unflushed) parity.",
		read(func() int64 { return int64(len(v.pending)) }), vol)
	v.hRead = reg.Histogram("ssdcheck_ecvol_read_latency_seconds", "Foreground read latency per logical operation.", vol)
	v.hWrite = reg.Histogram("ssdcheck_ecvol_write_latency_seconds", "Foreground write latency per logical operation.", vol)
	v.hFlush = reg.Histogram("ssdcheck_ecvol_parity_flush_latency_seconds", "Background parity-flush batch latency.", vol)
}

// Geometry accessors.

// Chunks is the logical chunk count.
func (v *Volume) Chunks() int64 { return int64(v.cfg.Stripes) * int64(v.cfg.Data) }

// Config returns the (defaulted) configuration.
func (v *Volume) Config() Config { return v.cfg }

// chunkIndex is the logical chunk number of (stripe, data slot).
func (v *Volume) chunkIndex(stripe, slot int) uint64 {
	return uint64(stripe)*uint64(v.cfg.Data) + uint64(slot)
}

// deviceLBA is where stripe s lives on every member device.
func (v *Volume) deviceLBA(stripe int) int64 {
	return int64(stripe) * int64(v.cfg.ChunkSectors)
}

// Close detaches the volume. The fleet stays up; staged parity is
// force-flushed first so no redundancy is silently dropped.
func (v *Volume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.flushAllLocked(causeForce)
	v.closed = true
	return nil
}

// note advances the volume's virtual progress.
func (v *Volume) note(t simclock.Time) {
	if t.After(v.vnow) {
		v.vnow = t
	}
}

// submitLocked routes the requests staged in v.scratchReqs through the
// fleet. The results land in the volume's own buffer, valid until the
// next submit, so a round trip allocates nothing. No batch is wider
// than a stripe, which is the buffer's length.
func (v *Volume) submitLocked() ([]fleet.Result, error) {
	out := v.scratchOut[:len(v.scratchReqs)]
	if err := v.fl.SubmitBatchInto(v.scratchReqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// submitOne routes one chunk request to a member and returns the
// result.
func (v *Volume) submitOne(dev int, op blockdev.Op, stripe int) (fleet.Result, error) {
	v.scratchReqs = v.scratchReqs[:0]
	v.scratchReqs = append(v.scratchReqs, fleet.Request{
		DeviceID: v.cfg.Devices[dev],
		Op:       op,
		LBA:      v.deviceLBA(stripe),
		Sectors:  v.cfg.ChunkSectors,
	})
	out, err := v.submitLocked()
	if err != nil {
		return fleet.Result{}, err
	}
	res := out[0]
	if res.Err == nil {
		v.note(res.CompletedAt)
	}
	return res, nil
}
