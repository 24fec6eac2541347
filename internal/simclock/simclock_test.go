package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * Microsecond)
	if t1 != Time(5000) {
		t.Fatalf("Add: got %d, want 5000", t1)
	}
	if d := t1.Sub(t0); d != 5*time.Microsecond {
		t.Fatalf("Sub: got %v", d)
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Fatal("Before ordering wrong")
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Fatal("After ordering wrong")
	}
	if t0.Max(t1) != t1 || t1.Max(t0) != t1 {
		t.Fatal("Max wrong")
	}
	if t1.Micros() != 5 {
		t.Fatalf("Micros: got %v", t1.Micros())
	}
	if Time(2e9).Seconds() != 2 {
		t.Fatalf("Seconds: got %v", Time(2e9).Seconds())
	}
	if s := t1.String(); s != "5.000us" {
		t.Fatalf("String: got %q", s)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge, %d collisions", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("zero seed produced %d zero outputs", zeros)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	// Coarse frequency check over 8 buckets.
	r := NewRNG(99)
	const n = 80000
	var buckets [8]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, c := range buckets {
		if c < n/8-n/80 || c > n/8+n/80 {
			t.Fatalf("bucket %d count %d far from %d", i, c, n/8)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestFloat64PropertyRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
