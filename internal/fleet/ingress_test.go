package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/obs"
)

// Edge-case coverage for the lock-free ingress path: Close racing
// in-flight batches, queue-full backpressure at the smallest legal
// ring, attach/detach interleaved with a saturating client, and the
// per-shard observability series. All of these run under -race in CI
// at GOMAXPROCS 1, 4 and 8.

// TestIngressRing exercises the ring primitive directly: fill to
// capacity, overflow rejected, FIFO drain, and wraparound across many
// times the capacity.
func TestIngressRing(t *testing.T) {
	r := newIngressRing(3) // rounds up to 4
	ops := make([]*shardOp, 9)
	for i := range ops {
		ops[i] = &shardOp{}
	}
	for i := 0; i < 4; i++ {
		if !r.push(ops[i]) {
			t.Fatalf("push %d rejected before capacity", i)
		}
	}
	if r.push(ops[4]) {
		t.Fatal("push accepted beyond capacity")
	}
	if got := r.depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if got := r.pop(); got != ops[i] {
			t.Fatalf("pop %d = %p, want %p (FIFO violated)", i, got, ops[i])
		}
	}
	if r.pop() != nil {
		t.Fatal("pop from empty ring returned an op")
	}
	// Wraparound: many cycles through the 4-slot ring.
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < 3; i++ {
			if !r.push(ops[i]) {
				t.Fatalf("cycle %d: push %d rejected", cycle, i)
			}
		}
		for i := 0; i < 3; i++ {
			if got := r.pop(); got != ops[i] {
				t.Fatalf("cycle %d: pop %d out of order", cycle, i)
			}
		}
	}
	if got := r.depth(); got != 0 {
		t.Fatalf("depth after drain = %d, want 0", got)
	}
}

// TestIngressCloseRace closes the manager while many goroutines are
// submitting batches as fast as they can. Every SubmitBatch call must
// either complete normally (all results for the batch) or fail whole
// with ErrManagerClosed — never hang on a lost wakeup, never return a
// partial batch, and never run a request on a torn-down shard.
func TestIngressCloseRace(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(testSpecs(), shards)
			cfg.QueueDepth = 4 // small ring keeps producers in the spin path too
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ok, closed atomic.Int64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					specs := testSpecs()
					batch := make([]Request, len(specs))
					for i, d := range specs {
						batch[i] = Request{DeviceID: d.ID, Op: blockdev.Read, LBA: int64((c*31 + i) % 1000 * 8), Sectors: 8}
					}
					<-start
					for {
						res, err := m.SubmitBatch(batch)
						switch {
						case err == nil:
							if len(res) != len(batch) {
								t.Errorf("partial batch: %d results for %d requests", len(res), len(batch))
								return
							}
							ok.Add(1)
						case errors.Is(err, ErrManagerClosed):
							closed.Add(1)
							return
						default:
							t.Errorf("SubmitBatch: %v", err)
							return
						}
					}
				}(c)
			}
			close(start)
			// Let the clients get going, then yank the manager out from
			// under them. Close must wait out every in-flight batch.
			for ok.Load() < 20 {
			}
			m.Close()
			wg.Wait()
			if closed.Load() != 8 {
				t.Fatalf("%d clients saw ErrManagerClosed, want all 8", closed.Load())
			}
			t.Logf("%d batches completed before close", ok.Load())
		})
	}
}

// TestIngressBackpressure runs saturating clients against the smallest
// legal ring (QueueDepth 1 rounds to 2 slots) and checks nothing is
// lost or duplicated: the per-device processed counts must equal
// exactly what the clients submitted. Producers spend most of this
// test in the ring-full spin loop, which is the path a big ring almost
// never takes.
func TestIngressBackpressure(t *testing.T) {
	cfg := testConfig(testSpecs(), 2)
	cfg.QueueDepth = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const perClient = 400
	specs := testSpecs()
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := specs[c%len(specs)].ID
			for i := 0; i < perClient; i++ {
				if _, err := m.Submit(id, blockdev.Read, int64(i%1000)*8, 8); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	want := map[string]int64{}
	for c := 0; c < 6; c++ {
		want[specs[c%len(specs)].ID] += perClient
	}
	for _, snap := range m.Devices() {
		if snap.Counters.Requests != want[snap.ID] {
			t.Errorf("device %s processed %d requests, want %d", snap.ID, snap.Counters.Requests, want[snap.ID])
		}
	}
}

// TestIngressAttachDetachUnderLoad bounces one device between two
// managers while saturating clients hammer the others. Membership ops
// ride the same rings as requests, so this checks they interleave
// cleanly with a full pipeline: no deadlock, no lost requests, and the
// migrant keeps its cumulative counts across every hop.
func TestIngressAttachDetachUnderLoad(t *testing.T) {
	cfg := testConfig(testSpecs(), 2)
	cfg.QueueDepth = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	other, err := New(testConfig([]DeviceSpec{{ID: "spare", Preset: "A", Seed: 99}}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Saturate the devices that are not migrating.
			id := []string{"dev-a", "dev-d", "dev-f"}[c%3]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Submit(id, blockdev.Read, int64(i%1000)*8, 8); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}

	const hops = 40
	var migrated int64
	for i := 0; i < hops; i++ {
		pd, err := m.Detach("dev-h")
		if err != nil {
			t.Fatalf("hop %d detach: %v", i, err)
		}
		if err := other.Attach(pd); err != nil {
			t.Fatalf("hop %d attach(other): %v", i, err)
		}
		if _, err := other.Submit("dev-h", blockdev.Read, int64(i)*8, 8); err != nil {
			t.Fatalf("hop %d submit(other): %v", i, err)
		}
		migrated++
		pd, err = other.Detach("dev-h")
		if err != nil {
			t.Fatalf("hop %d detach(other): %v", i, err)
		}
		if err := m.Attach(pd); err != nil {
			t.Fatalf("hop %d attach: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	for _, snap := range m.Devices() {
		if snap.ID == "dev-h" && snap.Counters.Requests != migrated {
			t.Errorf("migrant processed %d requests across hops, want %d", snap.Counters.Requests, migrated)
		}
	}
}

// TestIngressObsSeries pins the per-shard ingress series: after a
// known number of operations through a single-shard fleet, the wait
// histogram's count is exactly that number and the depth gauge reads
// zero (everything drained). The series names and label shapes are
// part of the dashboard contract.
func TestIngressObsSeries(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(testSpecs()[:1], 1)
	cfg.Registry = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const n = 17
	for i := 0; i < n; i++ {
		if _, err := m.Submit("dev-a", blockdev.Read, int64(i)*8, 8); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`fleet_ingress_queue_depth{shard="0"} 0`,
		fmt.Sprintf(`fleet_ingress_wait_us_count{shard="0"} %d`, n),
		"# TYPE fleet_ingress_queue_depth gauge",
		"# TYPE fleet_ingress_wait_us histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
