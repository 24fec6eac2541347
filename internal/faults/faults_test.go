package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// fixedDev is a deterministic device with a constant 100µs service
// time, so every latency distortion is exactly attributable.
type fixedDev struct{}

const fixedLat = 100 * time.Microsecond

func (fixedDev) Submit(req blockdev.Request, at simclock.Time) simclock.Time {
	return at.Add(fixedLat)
}
func (fixedDev) CapacitySectors() int64 { return 1 << 20 }

// taggedDev additionally reports a ground-truth cause.
type taggedDev struct{ fixedDev }

func (d taggedDev) SubmitTagged(req blockdev.Request, at simclock.Time) (simclock.Time, blockdev.Cause) {
	return d.Submit(req, at), blockdev.CauseGC
}

func req(i int) blockdev.Request {
	return blockdev.Request{Op: blockdev.Read, LBA: int64(i * 8 % (1 << 20)), Sectors: 8}
}

// drive pushes n requests through the injector on the checked path and
// returns a compact outcome log: "ok:<latency>" or "err:<class>".
func drive(inj *Injector, n int) []string {
	var now simclock.Time
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		done, err := inj.SubmitChecked(req(i), now)
		switch {
		case errors.Is(err, blockdev.ErrDeviceFailed):
			out = append(out, "err:failstop")
		case errors.Is(err, blockdev.ErrTransient):
			out = append(out, "err:transient")
		case err != nil:
			out = append(out, "err:other")
		default:
			out = append(out, fmt.Sprintf("ok:%v", done.Sub(now)))
			now = done
		}
	}
	return out
}

func TestTransientAt(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{{Kind: Transient, At: 3, Count: 2}}})
	log := drive(inj, 6)
	want := []string{"ok:100µs", "ok:100µs", "err:transient", "err:transient", "ok:100µs", "ok:100µs"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("request %d: got %s want %s (log %v)", i, log[i], want[i], log)
		}
	}
	if s := inj.Stats(); s.TransientErrors != 2 || s.Requests != 6 {
		t.Errorf("stats %+v", s)
	}
}

func TestFailStopIsPermanent(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{{Kind: FailStop, At: 2}}})
	log := drive(inj, 5)
	if log[0] != "ok:100µs" {
		t.Fatalf("pre-trigger request failed: %v", log)
	}
	for i := 1; i < 5; i++ {
		if log[i] != "err:failstop" {
			t.Fatalf("request %d after fail-stop: %s", i, log[i])
		}
	}
	if !inj.Stats().FailStopped {
		t.Error("FailStopped not latched")
	}
}

func TestLatencyStormAndStuckBusy(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{
		{Kind: LatencyStorm, At: 2, Count: 2, Factor: 10},
		{Kind: StuckBusy, At: 6, Count: 1, Pin: time.Second},
	}})
	log := drive(inj, 7)
	want := []string{"ok:100µs", "ok:1ms", "ok:1ms", "ok:100µs", "ok:100µs", "ok:1s", "ok:100µs"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("request %d: got %s want %s (log %v)", i, log[i], want[i], log)
		}
	}
	if s := inj.Stats(); s.Inflated != 2 || s.Stuck != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestDriftIsPermanentAndSilent(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{{Kind: Drift, At: 2, Factor: 1.5}}})
	log := drive(inj, 4)
	want := []string{"ok:100µs", "ok:150µs", "ok:150µs", "ok:150µs"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("request %d: got %s want %s", i, log[i], want[i])
		}
	}
}

// TestProbDeterminism: equal seed and schedule inject identically;
// different seeds diverge.
func TestProbDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, Schedules: []Schedule{{Kind: Transient, Prob: 0.05}}}
	a := drive(MustNew(fixedDev{}, cfg), 2000)
	b := drive(MustNew(fixedDev{}, cfg), 2000)
	errs := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverges: %s vs %s", i, a[i], b[i])
		}
		if a[i] == "err:transient" {
			errs++
		}
	}
	if errs < 50 || errs > 200 {
		t.Errorf("p=0.05 over 2000 requests injected %d errors", errs)
	}
	cfg.Seed = 100
	c := drive(MustNew(fixedDev{}, cfg), 2000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical injection")
	}
}

func TestDisarmedIsPassthrough(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{{Kind: FailStop, At: 1}}})
	inj.SetArmed(false)
	for i, got := range drive(inj, 3) {
		if got != "ok:100µs" {
			t.Fatalf("disarmed request %d: %s", i, got)
		}
	}
	if inj.Armed() || inj.Stats().Requests != 0 {
		t.Errorf("disarmed injector advanced: %+v", inj.Stats())
	}
	inj.SetArmed(true)
	if got := drive(inj, 1); got[0] != "err:failstop" {
		t.Errorf("armed request: %s", got[0])
	}
}

func TestInfallibleSubmitRendersErrorsAsTimeouts(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{{Kind: FailStop, At: 1}}})
	done := inj.Submit(req(0), 1000)
	if done.Sub(1000) != errLatency {
		t.Errorf("infallible error completion %v, want %v", done.Sub(1000), errLatency)
	}
	if inj.CapacitySectors() != 1<<20 {
		t.Error("capacity not delegated")
	}
}

func TestSubmitTaggedCauses(t *testing.T) {
	inj := MustNew(taggedDev{}, Config{Schedules: []Schedule{{Kind: LatencyStorm, At: 2, Count: 1, Factor: 4}}})
	if _, cause := inj.SubmitTagged(req(0), 0); cause != blockdev.CauseGC {
		t.Errorf("passthrough cause %v, want ground truth", cause)
	}
	if _, cause := inj.SubmitTagged(req(1), 0); cause != blockdev.CauseSecondary {
		t.Errorf("faulted cause %v, want secondary", cause)
	}
	// A non-tagged underlying device reports CauseNone.
	plain := MustNew(fixedDev{}, Config{})
	if _, cause := plain.SubmitTagged(req(0), 0); cause != blockdev.CauseNone {
		t.Errorf("untagged cause %v, want none", cause)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Schedules: []Schedule{{Kind: Transient}}},                                                             // no trigger
		{Schedules: []Schedule{{Kind: Transient, At: 5, Prob: 0.5}}},                                           // both triggers
		{Schedules: []Schedule{{Kind: Transient, Prob: 1.5}}},                                                  // prob > 1
		{Schedules: []Schedule{{Kind: Transient, At: 5, Count: -1}}},                                           // negative count
		{Schedules: []Schedule{{Kind: LatencyStorm, At: 5, Factor: -2}}},                                       // negative factor
		{Schedules: []Schedule{{Kind: StuckBusy, At: 5, Pin: -1}}},                                             // negative pin
		{Schedules: []Schedule{{Kind: Kind(42), At: 5}}},                                                       // unknown kind
		{Schedules: []Schedule{{Kind: FeatureShift, At: 5, Shift: &blockdev.FeatureShift{}}}},                  // no-op shift
		{Schedules: []Schedule{{Kind: FeatureShift, At: 5, Shift: &blockdev.FeatureShift{BufferScale: -0.5}}}}, // negative scale
	}
	for i, cfg := range bad {
		if _, err := New(fixedDev{}, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(fixedDev{}, Config{}); err != nil {
		t.Errorf("empty config rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Transient: "transient", LatencyStorm: "latency-storm", StuckBusy: "stuck-busy",
		FailStop: "fail-stop", Drift: "drift", FeatureShift: "feature-shift",
		Kind(6): "kind(6)", Kind(9): "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String()=%q want %q", k, got, want)
		}
	}
}

// shiftDev records feature shifts applied to it.
type shiftDev struct {
	fixedDev
	shifts []blockdev.FeatureShift
}

func (d *shiftDev) ShiftFeatures(s blockdev.FeatureShift) bool {
	d.shifts = append(d.shifts, s)
	return true
}

func TestFeatureShiftAppliesOnceAndSilently(t *testing.T) {
	dev := &shiftDev{}
	inj := MustNew(dev, Config{Schedules: []Schedule{{
		Kind: FeatureShift, At: 3,
		Shift: &blockdev.FeatureShift{BufferScale: 0.25, ToggleReadTrigger: true},
	}}})
	log := drive(inj, 6)
	for i, got := range log {
		if got != "ok:100µs" {
			t.Fatalf("request %d distorted by feature shift: %s", i, got)
		}
	}
	if len(dev.shifts) != 1 {
		t.Fatalf("shift applied %d times, want once", len(dev.shifts))
	}
	if s := dev.shifts[0]; s.BufferScale != 0.25 || !s.ToggleReadTrigger || s.ToggleBufferKind {
		t.Errorf("wrong shift delivered: %+v", s)
	}
	if st := inj.Stats(); st.FeatureShifts != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestFeatureShiftDefaultsToHalvedBuffer(t *testing.T) {
	dev := &shiftDev{}
	inj := MustNew(dev, Config{Schedules: []Schedule{{Kind: FeatureShift, At: 1}}})
	drive(inj, 2)
	if len(dev.shifts) != 1 || dev.shifts[0].BufferScale != 0.5 {
		t.Fatalf("default shift %+v, want buffer halved once", dev.shifts)
	}
}

func TestFeatureShiftOnUnshiftableDevice(t *testing.T) {
	inj := MustNew(fixedDev{}, Config{Schedules: []Schedule{{Kind: FeatureShift, At: 1}}})
	for i, got := range drive(inj, 3) {
		if got != "ok:100µs" {
			t.Fatalf("request %d: %s", i, got)
		}
	}
	if st := inj.Stats(); st.FeatureShifts != 0 {
		t.Errorf("shift counted on a device that cannot shift: %+v", st)
	}
}

func TestFeatureShiftOneShotUnderProb(t *testing.T) {
	dev := &shiftDev{}
	inj := MustNew(dev, Config{Seed: 7, Schedules: []Schedule{{Kind: FeatureShift, Prob: 0.2}}})
	drive(inj, 500)
	if len(dev.shifts) != 1 {
		t.Fatalf("prob-triggered shift applied %d times, want one-shot", len(dev.shifts))
	}
}

// MustNew is New for static configurations known to be valid.
func MustNew(dev blockdev.Device, cfg Config) *Injector {
	inj, err := New(dev, cfg)
	if err != nil {
		panic(err)
	}
	return inj
}

// Armed reports whether the injector is currently injecting.
func (i *Injector) Armed() bool { return i.armed }

// Stats returns the injection counters so far.
func (i *Injector) Stats() Stats { return i.stats }
