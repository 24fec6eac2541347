// Package trace synthesizes the block I/O workloads the paper evaluates
// with (Table II) and replays them against simulated devices.
//
// The paper replays SNIA IOTTA traces (TPCE, Homes, Web, Exchange,
// LiveMapsBackEnd, BuildServer). Those traces are not redistributable, so
// this package generates synthetic equivalents matching the published
// characteristics — request count, write fraction, randomness — plus the
// paper's synthetic RW-Mixed. Generation is fully deterministic from a
// seed.
package trace

import (
	"fmt"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// Spec describes one workload.
type Spec struct {
	Name string
	// Requests is the trace length at full scale (Table II numbers).
	Requests int
	// WriteFrac is the fraction of requests that are writes.
	WriteFrac float64
	// RandomFrac is the fraction of requests that jump to a random
	// offset; the rest continue sequentially after the previous
	// request of the same direction.
	RandomFrac float64
	// WorkingSetFrac bounds the fraction of the device the workload
	// touches (server traces rarely span a whole device).
	WorkingSetFrac float64
	// SizesPages are candidate request sizes in 4 KB pages, sampled
	// uniformly. Empty means {1}.
	SizesPages []int
}

// Validate reports a descriptive error for nonsensical parameters.
func (s Spec) Validate() error {
	if s.Requests <= 0 {
		return fmt.Errorf("trace %s: non-positive request count", s.Name)
	}
	if s.WriteFrac < 0 || s.WriteFrac > 1 || s.RandomFrac < 0 || s.RandomFrac > 1 {
		return fmt.Errorf("trace %s: fractions must be within [0,1]", s.Name)
	}
	if s.WorkingSetFrac <= 0 || s.WorkingSetFrac > 1 {
		return fmt.Errorf("trace %s: working set fraction must be in (0,1]", s.Name)
	}
	for _, p := range s.SizesPages {
		if p <= 0 {
			return fmt.Errorf("trace %s: non-positive request size", s.Name)
		}
	}
	return nil
}

// Table II of the paper.
var (
	// TPCE: 1.3M requests, 92.4% writes, 99.9% random.
	TPCE = Spec{Name: "TPCE", Requests: 1_300_000, WriteFrac: 0.924, RandomFrac: 0.999, WorkingSetFrac: 0.8, SizesPages: []int{1, 1, 1, 2}}
	// Homes: 2.0M requests, 90.4% writes, 53.8% random.
	Homes = Spec{Name: "Homes", Requests: 2_000_000, WriteFrac: 0.904, RandomFrac: 0.538, WorkingSetFrac: 0.7, SizesPages: []int{1, 1, 2, 4}}
	// Web: 2.0M requests, 91.5% writes, 14.8% random.
	Web = Spec{Name: "Web", Requests: 2_000_000, WriteFrac: 0.915, RandomFrac: 0.148, WorkingSetFrac: 0.7, SizesPages: []int{1, 2, 4, 8}}
	// Exch: 7.6M requests, 9.4% writes, 99.8% random.
	Exch = Spec{Name: "Exch", Requests: 7_600_000, WriteFrac: 0.094, RandomFrac: 0.998, WorkingSetFrac: 0.9, SizesPages: []int{1, 1, 2, 2}}
	// Live: 3.6M requests, 22.2% writes, 50.5% random.
	Live = Spec{Name: "Live", Requests: 3_600_000, WriteFrac: 0.222, RandomFrac: 0.505, WorkingSetFrac: 0.8, SizesPages: []int{1, 2, 4, 16}}
	// Build: 0.6M requests, 53.9% writes, 85.6% random.
	Build = Spec{Name: "Build", Requests: 600_000, WriteFrac: 0.539, RandomFrac: 0.856, WorkingSetFrac: 0.6, SizesPages: []int{1, 1, 2, 4}}
	// RWMixed is the paper's extra synthetic read/write-mixed trace.
	RWMixed = Spec{Name: "RW Mixed", Requests: 1_000_000, WriteFrac: 0.5, RandomFrac: 1.0, WorkingSetFrac: 1.0, SizesPages: []int{1}}
	// WriteBurst is the synthetic write-intensive benchmark driving the
	// paper's Fig. 15a timeline.
	WriteBurst = Spec{Name: "WriteBurst", Requests: 1_000_000, WriteFrac: 1.0, RandomFrac: 0.9, WorkingSetFrac: 0.8, SizesPages: []int{1, 1, 2}}
)

// Workloads lists the evaluation workloads in the paper's order.
var Workloads = []Spec{TPCE, Homes, Web, Exch, Live, Build, RWMixed}

// ByName returns the workload called name: one of Workloads, or
// WriteBurst. Its error lists the names it accepts.
func ByName(name string) (Spec, error) {
	specs := append(Workloads[:len(Workloads):len(Workloads)], WriteBurst)
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("trace: unknown workload %q (want one of %q)", name, names)
}

// WriteIntensive and ReadIntensive are the paper's two workload groups
// (§V-A), used by the multi-tenant VA-LVM experiment.
var (
	WriteIntensive = []Spec{TPCE, Homes, Web}
	ReadIntensive  = []Spec{Exch, Live, Build}
)

// Generator streams requests of a workload over a device of the given
// capacity. It is deterministic for a given (spec, capacity, seed).
type Generator struct {
	spec       Spec
	rng        *simclock.RNG
	span       int64 // working-set span in sectors
	readCursor int64
	writeCur   int64
}

// NewGenerator returns a generator for spec over a device with
// capacitySectors sectors. It panics on an invalid spec; the evaluation
// specs are all valid by construction.
func NewGenerator(spec Spec, capacitySectors int64, seed uint64) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if len(spec.SizesPages) == 0 {
		spec.SizesPages = []int{1}
	}
	span := int64(float64(capacitySectors) * spec.WorkingSetFrac)
	span -= span % blockdev.SectorsPerPage
	if span < 16*blockdev.SectorsPerPage {
		span = capacitySectors
	}
	g := &Generator{spec: spec, rng: simclock.NewRNG(seed), span: span}
	g.readCursor = g.randomPage()
	g.writeCur = g.randomPage()
	return g
}

func (g *Generator) randomPage() int64 {
	pages := g.span / blockdev.SectorsPerPage
	return g.rng.Int63n(pages) * blockdev.SectorsPerPage
}

// Next returns the next request of the trace.
func (g *Generator) Next() blockdev.Request {
	isWrite := g.rng.Float64() < g.spec.WriteFrac
	isRandom := g.rng.Float64() < g.spec.RandomFrac
	size := g.spec.SizesPages[g.rng.Intn(len(g.spec.SizesPages))] * blockdev.SectorsPerPage

	cursor := &g.readCursor
	if isWrite {
		cursor = &g.writeCur
	}
	if isRandom {
		*cursor = g.randomPage()
	}
	if *cursor+int64(size) > g.span {
		*cursor = 0
	}
	req := blockdev.Request{LBA: *cursor, Sectors: size}
	if isWrite {
		req.Op = blockdev.Write
	} else {
		req.Op = blockdev.Read
	}
	*cursor += int64(size)
	return req
}

// Generate materializes n requests (n <= 0 means the spec's full length).
func Generate(spec Spec, capacitySectors int64, seed uint64, n int) []blockdev.Request {
	if n <= 0 {
		n = spec.Requests
	}
	g := NewGenerator(spec, capacitySectors, seed)
	out := make([]blockdev.Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Characteristics summarizes a request stream the way Table II does.
type Characteristics struct {
	Requests   int
	WriteFrac  float64
	RandomFrac float64 // fraction of requests not adjacent to the previous same-direction request
}

// Characterize computes Table II-style statistics of a request slice.
func Characterize(reqs []blockdev.Request) Characteristics {
	var c Characteristics
	c.Requests = len(reqs)
	if len(reqs) == 0 {
		return c
	}
	writes := 0
	random := 0
	lastEnd := map[blockdev.Op]int64{}
	for _, r := range reqs {
		if r.Op == blockdev.Write {
			writes++
		}
		if end, ok := lastEnd[r.Op]; !ok || r.LBA != end {
			random++
		}
		lastEnd[r.Op] = r.LBA + int64(r.Sectors)
	}
	c.WriteFrac = float64(writes) / float64(len(reqs))
	// The first request of each direction is counted random, matching
	// the paper's adjacency definition as closely as possible.
	c.RandomFrac = float64(random) / float64(len(reqs))
	return c
}
