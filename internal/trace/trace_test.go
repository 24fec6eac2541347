package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/ssd"
)

const testCapacity = 1 << 20 // sectors, matching the presets

func TestSpecValidation(t *testing.T) {
	for _, s := range Workloads {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := Spec{Name: "bad", Requests: 0, WorkingSetFrac: 0.5}
	if bad.Validate() == nil {
		t.Error("zero requests accepted")
	}
	bad = Spec{Name: "bad", Requests: 1, WriteFrac: 1.5, WorkingSetFrac: 0.5}
	if bad.Validate() == nil {
		t.Error("write fraction > 1 accepted")
	}
	bad = Spec{Name: "bad", Requests: 1, WorkingSetFrac: 0}
	if bad.Validate() == nil {
		t.Error("zero working set accepted")
	}
	bad = Spec{Name: "bad", Requests: 1, WorkingSetFrac: 0.5, SizesPages: []int{0}}
	if bad.Validate() == nil {
		t.Error("zero request size accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Web", "RW Mixed", "WriteBurst"} {
		if s, err := ByName(name); err != nil || s.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	_, err := ByName("RWMixed")
	if err == nil || !strings.Contains(err.Error(), `"RW Mixed"`) || !strings.Contains(err.Error(), `"WriteBurst"`) {
		t.Fatalf("ByName(RWMixed) error = %v, want it to list the accepted names", err)
	}
}

// TestTableIICharacteristics checks each generated workload reproduces
// its published write fraction and randomness within tolerance.
func TestTableIICharacteristics(t *testing.T) {
	for _, spec := range Workloads {
		reqs := Generate(spec, testCapacity, 77, 50000)
		ch := Characterize(reqs)
		if math.Abs(ch.WriteFrac-spec.WriteFrac) > 0.02 {
			t.Errorf("%s: write frac %.3f, want %.3f", spec.Name, ch.WriteFrac, spec.WriteFrac)
		}
		if math.Abs(ch.RandomFrac-spec.RandomFrac) > 0.05 {
			t.Errorf("%s: random frac %.3f, want %.3f", spec.Name, ch.RandomFrac, spec.RandomFrac)
		}
	}
}

func TestGeneratorBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewGenerator(Homes, testCapacity, seed)
		for i := 0; i < 500; i++ {
			r := g.Next()
			if r.LBA < 0 || r.LBA+int64(r.Sectors) > testCapacity {
				return false
			}
			if r.LBA%blockdev.SectorsPerPage != 0 || r.Sectors%blockdev.SectorsPerPage != 0 {
				return false
			}
			if r.Op != blockdev.Read && r.Op != blockdev.Write {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(Build, testCapacity, 5, 1000)
	b := Generate(Build, testCapacity, 5, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation diverged at %d", i)
		}
	}
	c := Generate(Build, testCapacity, 6, 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratorWorkingSet(t *testing.T) {
	spec := Build // 60% working set
	reqs := Generate(spec, testCapacity, 3, 5000)
	limit := int64(float64(testCapacity) * spec.WorkingSetFrac)
	for _, r := range reqs {
		if r.LBA+int64(r.Sectors) > limit+blockdev.SectorsPerPage {
			t.Fatalf("request at %d beyond working set %d", r.LBA, limit)
		}
	}
}

func TestReplayProducesMonotoneCompletions(t *testing.T) {
	dev := ssd.MustNew(ssd.PresetA(1))
	reqs := Generate(RWMixed, dev.CapacitySectors(), 2, 2000)
	log, end := Replay(dev, reqs, ReplayOptions{})
	if len(log) != 2000 {
		t.Fatalf("log length %d", len(log))
	}
	for i, c := range log {
		if c.Done.Before(c.Submit) {
			t.Fatalf("completion %d before submission", i)
		}
		if i > 0 && c.Submit.Before(log[i-1].Done) {
			t.Fatalf("QD1 replay overlapped requests at %d", i)
		}
	}
	if end != log[len(log)-1].Done {
		t.Fatalf("end time %v, last completion %v", end, log[len(log)-1].Done)
	}
}

func TestReplayLimitAndThinktime(t *testing.T) {
	dev := ssd.MustNew(ssd.PresetA(1))
	reqs := Generate(RWMixed, dev.CapacitySectors(), 2, 100)
	log, _ := Replay(dev, reqs, ReplayOptions{Limit: 10, Thinktime: 500000})
	if len(log) != 10 {
		t.Fatalf("limit ignored, got %d", len(log))
	}
	for i := 1; i < len(log); i++ {
		if gap := log[i].Submit.Sub(log[i-1].Done); gap < 500000 {
			t.Fatalf("thinktime not applied: gap %v", gap)
		}
	}
}

func TestPreconditionReachesSteadyState(t *testing.T) {
	dev := ssd.MustNew(ssd.PresetA(4))
	end := Precondition(dev, 9, 1.5, 0)
	if end <= 0 {
		t.Fatal("precondition did not advance time")
	}
	// Steady state means GC has begun reclaiming.
	if dev.VolumeStats(0).GCs == 0 {
		t.Fatal("precondition never triggered GC; device not in steady state")
	}
	// A replay on the preconditioned device keeps experiencing GC —
	// the paper notes the un-preconditioned device "rarely calls GC".
	g := NewGenerator(TPCE, dev.CapacitySectors(), 10)
	before := dev.VolumeStats(0).GCs
	_, _ = ReplayGenerator(dev, g, 20000, ReplayOptions{Start: end})
	if dev.VolumeStats(0).GCs == before {
		t.Fatal("write-intensive replay on steady-state device triggered no GC")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	reqs := Generate(Build, testCapacity, 7, 500)
	var buf bytes.Buffer
	if err := WriteRequests(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequests(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip lost requests: %d vs %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("request %d changed: %+v vs %+v", i, got[i], reqs[i])
		}
	}
}

func TestReadRequestsFormat(t *testing.T) {
	input := `# a comment
R 0 8
write 4096 16

T 128 8
`
	got, err := ReadRequests(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []blockdev.Request{
		{Op: blockdev.Read, LBA: 0, Sectors: 8},
		{Op: blockdev.Write, LBA: 4096, Sectors: 16},
		{Op: blockdev.Trim, LBA: 128, Sectors: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d requests", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadRequestsErrors(t *testing.T) {
	for _, bad := range []string{
		"X 0 8",    // unknown op
		"R -5 8",   // negative lba
		"R 0 0",    // zero length
		"R 0",      // missing field
		"R zero 8", // non-numeric
	} {
		if _, err := ReadRequests(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestClampToCapacity(t *testing.T) {
	reqs := []blockdev.Request{
		{Op: blockdev.Read, LBA: 0, Sectors: 8},           // fine
		{Op: blockdev.Write, LBA: 1 << 30, Sectors: 8},    // lba beyond device
		{Op: blockdev.Write, LBA: 1000, Sectors: 2000000}, // runs off the end
	}
	adj := ClampToCapacity(reqs, 1<<20)
	if adj != 2 {
		t.Fatalf("adjusted=%d", adj)
	}
	for i, r := range reqs {
		if r.LBA < 0 || r.LBA+int64(r.Sectors) > 1<<20 {
			t.Fatalf("request %d still out of range: %+v", i, r)
		}
	}
}
