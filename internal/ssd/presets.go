package ssd

import (
	"fmt"
	"time"

	"ssdcheck/internal/ftl"
	"ssdcheck/internal/nand"
)

// The seven commodity presets mirror Table I of the paper: vendors W, X,
// Y ship single-volume back-buffered devices (A–C), vendor Z ships the
// multi-volume D and E and the fore-buffered, read-trigger-flush F and G.
// Geometry is scaled to simulation-friendly capacity (512 MB logical)
// while preserving every structural property the paper extracts:
// volume-bit indices 17 (D) and 17,18 (E), buffer sizes 248/256/128 KB,
// buffer types, and flush algorithms.

// baseGeometry is the full-array geometry shared by the presets: 4
// channels × 4 chips × 2 planes = 32 planes, 40 blocks per plane, 128
// pages per block → 640 MB raw.
func baseGeometry() nand.Geometry {
	return nand.Geometry{
		Channels: 4, ChipsPerChannel: 4, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 40, PagesPerBlock: 128, PageSize: 4096,
	}
}

// logicalSectors512MB is the host-visible capacity of every preset:
// 2^20 sectors, so sector-address bits run 0..19 and the volume bits 17
// and 18 sit inside the address range exactly as in the paper's Fig. 4/5.
const logicalSectors512MB = 1 << 20

func basePreset(name string, seed uint64) Config {
	return Config{
		Name:            name,
		Geom:            baseGeometry(),
		Timing:          nand.DefaultTiming(),
		LogicalSectors:  logicalSectors512MB,
		BufferBytes:     248 * 1024,
		BufferType:      ftl.BufferBack,
		GCLowBlocks:     6,
		GCReclaimBlocks: 8,
		WearLevelDelta:  24,
		ChargeFlush:     true,
		ChargeGC:        true,
		SecondaryDelay:  2 * time.Millisecond,
		JitterFrac:      0.05,
		Seed:            seed,
	}
}

// PresetA: vendor W — single volume, 248 KB back buffer, full-trigger.
func PresetA(seed uint64) Config {
	c := basePreset("SSD A", seed)
	c.SecondaryRate = 0.0006
	return c
}

// PresetB: vendor X — like A with slightly faster NAND programs.
func PresetB(seed uint64) Config {
	c := basePreset("SSD B", seed)
	c.Timing.ProgramPage = 900 * time.Microsecond
	c.SecondaryRate = 0.0007
	return c
}

// PresetC: vendor Y — 256 KB buffer, slower NAND, burstier GC; the most
// irregular writer of the single-volume group (used in Fig. 15).
func PresetC(seed uint64) Config {
	c := basePreset("SSD C", seed)
	c.BufferBytes = 256 * 1024
	c.Timing.ProgramPage = 1100 * time.Microsecond
	c.GCReclaimBlocks = 12
	c.SecondaryRate = 0.0012
	return c
}

// PresetD: vendor Z — two internal volumes selected by LBA bit 17,
// 128 KB back buffers. Stronger secondary features (the paper reports
// visibly lower HL accuracy on D).
func PresetD(seed uint64) Config {
	c := basePreset("SSD D", seed)
	c.VolumeBits = []int{17}
	c.BufferBytes = 128 * 1024
	c.SecondaryRate = 0.0035
	c.SecondaryDelay = 3 * time.Millisecond
	return c
}

// PresetE: vendor Z — four internal volumes selected by LBA bits 17 and
// 18, 128 KB back buffers, heaviest secondary features (lowest HL
// accuracy in the paper's Fig. 11).
func PresetE(seed uint64) Config {
	c := basePreset("SSD E", seed)
	c.VolumeBits = []int{17, 18}
	c.BufferBytes = 128 * 1024
	c.SecondaryRate = 0.006
	c.SecondaryDelay = 3 * time.Millisecond
	return c
}

// PresetF: vendor Z — single volume, 128 KB fore buffer, full- and
// read-trigger flush; high flush overhead exposed directly to writes.
func PresetF(seed uint64) Config {
	c := basePreset("SSD F", seed)
	c.BufferBytes = 128 * 1024
	c.BufferType = ftl.BufferFore
	c.ReadTriggerFlush = true
	c.SecondaryRate = 0.0010
	return c
}

// PresetG: vendor Z — like F with slightly faster NAND.
func PresetG(seed uint64) Config {
	c := basePreset("SSD G", seed)
	c.BufferBytes = 128 * 1024
	c.BufferType = ftl.BufferFore
	c.ReadTriggerFlush = true
	c.Timing.ProgramPage = 950 * time.Microsecond
	c.SecondaryRate = 0.0008
	return c
}

// PresetH: extension beyond the paper's Table I — a TLC-era device with
// an SLC cache region in front of the MLC array (the paper names SLC
// caching as the canonical unmodeled secondary feature, §VI). Flushes
// land in fast SLC; exhausting the region triggers a long fold — a
// second periodic stall family whose history SSDcheck's GC model
// absorbs without modification.
func PresetH(seed uint64) Config {
	c := basePreset("SSD H", seed)
	c.BufferBytes = 256 * 1024
	c.SLCBlocks = 8 // 8 blocks x 64 usable pages = 2 MB SLC cache
	c.SecondaryRate = 0.0008
	return c
}

// PresetX: extension — an NVM-based SSD (3D-XPoint-class medium, paper
// §VI): microsecond-scale reads and programs, near-free erases, a small
// write buffer whose drains are faster than the NL/HL threshold can
// resolve. Such a device has essentially no observable irregularity;
// the correct SSDcheck outcome is "outside model coverage" and the
// harmless all-NL fallback.
func PresetX(seed uint64) Config {
	c := basePreset("SSD X", seed)
	c.BufferBytes = 64 * 1024
	c.Timing.ReadPage = 8 * time.Microsecond
	c.Timing.ProgramPage = 25 * time.Microsecond
	c.Timing.ProgramSLC = 0
	c.Timing.EraseBlock = 100 * time.Microsecond
	c.Timing.Transfer = 2 * time.Microsecond
	c.Timing.GCPipeline = 32
	c.GCReclaimBlocks = 2
	c.WearLevelDelta = 0
	c.SecondaryRate = 0
	return c
}

// PresetNames lists the commodity presets in evaluation order. "H" is
// this reproduction's extension preset (SLC caching), not part of the
// paper's Table I.
var PresetNames = []string{"A", "B", "C", "D", "E", "F", "G"}

// ExtendedPresetNames adds the extension presets.
var ExtendedPresetNames = []string{"A", "B", "C", "D", "E", "F", "G", "H"}

// Preset returns the named commodity preset ("A".."G").
func Preset(name string, seed uint64) (Config, error) {
	switch name {
	case "A":
		return PresetA(seed), nil
	case "B":
		return PresetB(seed), nil
	case "C":
		return PresetC(seed), nil
	case "D":
		return PresetD(seed), nil
	case "E":
		return PresetE(seed), nil
	case "F":
		return PresetF(seed), nil
	case "G":
		return PresetG(seed), nil
	case "H":
		return PresetH(seed), nil
	case "X":
		return PresetX(seed), nil
	default:
		return Config{}, fmt.Errorf("ssd: unknown preset %q", name)
	}
}

// Prototype variants reproduce the paper's custom FPGA SSD ablation
// (Fig. 3): 32 planes, one volume, back buffer; flush and GC costs are
// toggled to isolate their contribution. Secondary features and jitter
// are minimal — the prototype's firmware is fully known.

func protoBase(name string, seed uint64) Config {
	c := basePreset(name, seed)
	c.BufferBytes = 256 * 1024
	c.SecondaryRate = 0
	c.JitterFrac = 0.03
	c.WearLevelDelta = 0
	// The prototype reclaims lazily (one victim per invocation), so GC
	// fires often enough to be visible at the 99.5th percentile — the
	// regime Fig. 3 measures — while each invocation stays cheap (the
	// benchmark's small working set self-invalidates its victims).
	c.GCReclaimBlocks = 2
	// Every variant, including SSD_Optimal, pays the same host
	// interface + firmware floor a real FPGA device does; the Fig. 3
	// ratios are relative to that floor, not to a zero-cost stub.
	c.Timing.BufferAck = 28 * time.Microsecond
	return c
}

// ProtoOptimal acknowledges immediately with no internal behaviour.
func ProtoOptimal(seed uint64) Config {
	c := protoBase("SSD_Optimal", seed)
	c.Optimal = true
	return c
}

// ProtoOthers runs the full FTL but charges neither flush nor GC time.
func ProtoOthers(seed uint64) Config {
	c := protoBase("SSD_Others", seed)
	c.ChargeFlush, c.ChargeGC = false, false
	return c
}

// ProtoWB charges buffer-flush time only (SSD_WB+Others).
func ProtoWB(seed uint64) Config {
	c := protoBase("SSD_WB+Others", seed)
	c.ChargeFlush, c.ChargeGC = true, false
	return c
}

// ProtoGC charges garbage-collection time only (SSD_GC+Others).
func ProtoGC(seed uint64) Config {
	c := protoBase("SSD_GC+Others", seed)
	c.ChargeFlush, c.ChargeGC = false, true
	return c
}

// ProtoAll charges everything (SSD_All).
func ProtoAll(seed uint64) Config {
	c := protoBase("SSD_All", seed)
	return c
}
