package ssdcheck_test

import (
	"testing"
	"time"

	"ssdcheck"
	"ssdcheck/internal/host"
)

// TestFacadeQuickstart walks the whole public API the way the README's
// quickstart does: build a device, diagnose it, predict, evaluate.
func TestFacadeQuickstart(t *testing.T) {
	cfg, err := ssdcheck.Preset("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ssdcheck.NewSSD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := ssdcheck.Precondition(dev, 1, 1.3, 0)

	feats, now, err := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{
		Seed: 1, MinBit: 15, MaxBit: 19, AllocWritesPerBit: 2200, GCIntervals: 24,
		Thinktimes: []time.Duration{500 * time.Microsecond, time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if feats.BufferBytes != 248*1024 {
		t.Fatalf("diagnosis found %dKB buffer, want 248KB", feats.BufferBytes/1024)
	}

	pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})
	reqs := ssdcheck.GenerateWorkload(ssdcheck.RWMixed, dev.CapacitySectors(), 2, 20000)
	rep := ssdcheck.EvaluateAccuracy(dev, pr, reqs, now)
	if rep.NLAccuracy() < 0.97 {
		t.Fatalf("NL accuracy %.3f", rep.NLAccuracy())
	}
	if rep.HLAccuracy() < 0.5 {
		t.Fatalf("HL accuracy %.3f", rep.HLAccuracy())
	}
}

func TestFacadeSchedulers(t *testing.T) {
	for _, mk := range []func() ssdcheck.Scheduler{
		ssdcheck.NewNoop, ssdcheck.NewDeadline, ssdcheck.NewCFQ,
	} {
		s := mk()
		s.Add(host.Item{Req: ssdcheck.Request{Op: ssdcheck.Write, LBA: 0, Sectors: 8}})
		if s.Len() != 1 {
			t.Fatalf("%s did not enqueue", s.Name())
		}
		if _, ok := s.Next(0); !ok {
			t.Fatalf("%s did not dispatch", s.Name())
		}
	}
}

func TestFacadeLVM(t *testing.T) {
	lin := ssdcheck.NewLinearLVM(1<<20, 2)
	va := ssdcheck.NewVALVM(1<<20, []int{17})
	if lin.Volumes() != 2 || va.Volumes() != 2 {
		t.Fatal("volume managers misconfigured")
	}
	if va.Map(1, 0) != 1<<17 {
		t.Fatal("VA-LVM splice wrong")
	}
}
