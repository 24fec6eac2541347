package blockdev

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"ssdcheck/internal/simclock"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{Read: "read", Write: "write", Trim: "trim", Op(3): "op(3)", Op(9): "op(9)"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String()=%q want %q", op, got, want)
		}
	}
}

func TestCauseString(t *testing.T) {
	cases := map[Cause]string{
		CauseNone: "none", CauseFlush: "flush", CauseBackpressure: "backpressure",
		CauseReadTrigger: "read-trigger", CauseGC: "gc", CauseSecondary: "secondary",
		Cause(6): "cause(6)", Cause(99): "cause(99)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Cause(%d).String()=%q want %q", c, got, want)
		}
	}
}

// TestWorseCauseOrder pins the full severity order single-label
// reporting relies on: none < flush < backpressure < read-trigger <
// secondary < gc, with unknown causes ranked below everything.
func TestWorseCauseOrder(t *testing.T) {
	bySeverity := []Cause{
		CauseNone, CauseFlush, CauseBackpressure,
		CauseReadTrigger, CauseSecondary, CauseGC,
	}
	for i, a := range bySeverity {
		for j, b := range bySeverity {
			want := a
			if j > i {
				want = b
			}
			if got := WorseCause(a, b); got != want {
				t.Errorf("WorseCause(%v, %v)=%v want %v", a, b, got, want)
			}
			// Symmetry: the result must not depend on argument order.
			if got := WorseCause(b, a); got != want {
				t.Errorf("WorseCause(%v, %v)=%v want %v", b, a, got, want)
			}
		}
	}
	unknown := Cause(99)
	for _, c := range bySeverity[1:] {
		if got := WorseCause(unknown, c); got != c {
			t.Errorf("WorseCause(unknown, %v)=%v want %v", c, got, c)
		}
	}
	if got := WorseCause(CauseNone, unknown); got != CauseNone {
		t.Errorf("WorseCause(none, unknown)=%v want none", got)
	}
}

func TestRequestBytes(t *testing.T) {
	r := Request{Op: Write, LBA: 0, Sectors: 8}
	if r.Bytes() != 4096 {
		t.Fatalf("Bytes()=%d", r.Bytes())
	}
}

func TestCompletionLatency(t *testing.T) {
	c := Completion{Submit: 100, Done: 350}
	if c.Latency() != 250 {
		t.Fatalf("Latency()=%d", c.Latency())
	}
}

// infallible is a minimal Device with a fixed service time.
type infallible struct{}

func (infallible) Submit(req Request, at simclock.Time) simclock.Time { return at + 100 }
func (infallible) CapacitySectors() int64                             { return 1 << 20 }

// fallible additionally fails every request with a wrapped transient.
type fallible struct{ infallible }

func (fallible) SubmitChecked(req Request, at simclock.Time) (simclock.Time, error) {
	return 0, fmt.Errorf("request %d: %w", req.LBA, ErrTransient)
}

func TestErrorTaxonomy(t *testing.T) {
	wrapped := fmt.Errorf("dev sda: %w", ErrTransient)
	if !errors.Is(wrapped, ErrTransient) {
		t.Error("wrapped transient not errors.Is-compatible")
	}
	if errors.Is(wrapped, ErrDeviceFailed) {
		t.Error("transient matches ErrDeviceFailed")
	}
	failed := fmt.Errorf("dev sdb: %w", ErrDeviceFailed)
	if !errors.Is(failed, ErrDeviceFailed) {
		t.Error("wrapped fail-stop not errors.Is-compatible")
	}
}

func TestSubmitChecked(t *testing.T) {
	req := Request{Op: Read, LBA: 8, Sectors: 8}
	done, err := SubmitChecked(infallible{}, req, 50)
	if err != nil || done != 150 {
		t.Errorf("infallible fallback: done=%d err=%v", done, err)
	}
	_, err = SubmitChecked(fallible{}, req, 50)
	if !errors.Is(err, ErrTransient) {
		t.Errorf("fallible path lost the typed error: %v", err)
	}
}

func TestSectorPageConstantsConsistent(t *testing.T) {
	if SectorsPerPage*SectorSize != PageSize {
		t.Fatal("sector/page constants inconsistent")
	}
	f := func(sectors uint16) bool {
		n := int(sectors%1024) + 1
		return Request{Sectors: n}.Bytes() == n*SectorSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
