// Package lvm implements the paper's first use case (§IV-A): logical
// volume managers that split one SSD between tenants. Linear-LVM is the
// conventional device-mapper linear target — contiguous LBA ranges per
// logical volume — which lets tenants collide inside the SSD's internal
// volumes. VA-LVM (volume-aware LVM) splices the logical-volume ID into
// the LBA at the internal volume-index bits SSDcheck extracted, pinning
// each tenant to its own internal volume and eliminating interference
// (Fig. 9).
package lvm

import "fmt"

// Mapper translates a tenant-relative LBA to a device LBA.
type Mapper interface {
	// Name labels the mapper in reports.
	Name() string
	// Volumes returns how many logical volumes the device is split into.
	Volumes() int
	// LogicalCapacity returns each logical volume's size in sectors.
	LogicalCapacity() int64
	// Map translates an LBA of logical volume vol to a device LBA.
	// It panics on out-of-range input; the volume boundary is a hard
	// isolation contract.
	Map(vol int, lba int64) int64
	// Align returns the contiguity granule in tenant LBA space:
	// requests crossing an Align boundary must be split before mapping
	// (exactly as the kernel device mapper splits bios at target
	// boundaries).
	Align() int64
}

// Linear is the conventional linear volume manager: logical volume i
// occupies the i-th contiguous slice of the device.
type Linear struct {
	capacity int64
	volumes  int
}

// NewLinear splits a device of capacity sectors into n contiguous
// logical volumes.
func NewLinear(capacity int64, n int) *Linear {
	if n <= 0 || capacity <= 0 || capacity%int64(n) != 0 {
		panic(fmt.Sprintf("lvm: bad linear split capacity=%d n=%d", capacity, n))
	}
	return &Linear{capacity: capacity, volumes: n}
}

// Name implements Mapper.
func (l *Linear) Name() string { return "Linear-LVM" }

// Volumes implements Mapper.
func (l *Linear) Volumes() int { return l.volumes }

// LogicalCapacity implements Mapper.
func (l *Linear) LogicalCapacity() int64 { return l.capacity / int64(l.volumes) }

// Align implements Mapper: a linear target is contiguous end to end.
func (l *Linear) Align() int64 { return l.LogicalCapacity() }

// Map implements Mapper.
func (l *Linear) Map(vol int, lba int64) int64 {
	size := l.LogicalCapacity()
	if vol < 0 || vol >= l.volumes || lba < 0 || lba >= size {
		panic(fmt.Sprintf("lvm: linear map out of range vol=%d lba=%d", vol, lba))
	}
	return int64(vol)*size + lba
}

// VolumeAware is the paper's VA-LVM: the logical-volume ID bits are
// inserted into the LBA exactly at the internal volume-index bit
// positions, so every logical volume maps onto exactly one internal
// volume and tenants cannot interfere.
type VolumeAware struct {
	capacity   int64
	volumeBits []int // ascending device volume-index bits
}

// NewVolumeAware builds a VA-LVM over a device of capacity sectors whose
// internal volume-index bits (from SSDcheck's diagnosis) are volumeBits.
func NewVolumeAware(capacity int64, volumeBits []int) *VolumeAware {
	if len(volumeBits) == 0 {
		panic("lvm: VA-LVM needs at least one volume-index bit")
	}
	for i := 1; i < len(volumeBits); i++ {
		if volumeBits[i] <= volumeBits[i-1] {
			panic("lvm: volume bits must be strictly ascending")
		}
	}
	if capacity%(1<<uint(len(volumeBits))) != 0 {
		panic("lvm: capacity not divisible by volume count")
	}
	return &VolumeAware{capacity: capacity, volumeBits: append([]int(nil), volumeBits...)}
}

// Name implements Mapper.
func (v *VolumeAware) Name() string { return "VA-LVM" }

// Volumes implements Mapper.
func (v *VolumeAware) Volumes() int { return 1 << uint(len(v.volumeBits)) }

// LogicalCapacity implements Mapper.
func (v *VolumeAware) LogicalCapacity() int64 { return v.capacity / int64(v.Volumes()) }

// Align implements Mapper: contiguity breaks where the first inserted
// bit position rolls over.
func (v *VolumeAware) Align() int64 { return int64(1) << uint(v.volumeBits[0]) }

// Map implements Mapper: expand the tenant LBA by inserting the volume
// ID's bits at the internal volume-index positions (the inverse of the
// FTL's volume-selection bit gather).
func (v *VolumeAware) Map(vol int, lba int64) int64 {
	if vol < 0 || vol >= v.Volumes() || lba < 0 || lba >= v.LogicalCapacity() {
		panic(fmt.Sprintf("lvm: VA map out of range vol=%d lba=%d", vol, lba))
	}
	out := int64(0)
	srcPos := uint(0)
	bi := 0
	for pos := 0; pos < 63; pos++ {
		if bi < len(v.volumeBits) && v.volumeBits[bi] == pos {
			out |= int64((vol>>uint(bi))&1) << uint(pos)
			bi++
			continue
		}
		out |= ((lba >> srcPos) & 1) << uint(pos)
		srcPos++
	}
	return out
}
