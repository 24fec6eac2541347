package ecvol

import (
	"testing"

	"ssdcheck/internal/simclock"
)

// combinations calls fn with every size-r subset of [0, n).
func combinations(n, r int, fn func([]int)) {
	idx := make([]int, r)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == r {
			fn(idx)
			return
		}
		for i := start; i <= n-(r-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// TestMul64MatchesBytewise: mul64 is gfMul applied to each byte lane.
func TestMul64MatchesBytewise(t *testing.T) {
	rng := simclock.NewRNG(1)
	for iter := 0; iter < 2000; iter++ {
		c := byte(rng.Uint64())
		x := rng.Uint64()
		got := mul64(c, x)
		var want uint64
		for i := 0; i < 64; i += 8 {
			want |= uint64(gfMul(c, byte(x>>i))) << i
		}
		if got != want {
			t.Fatalf("mul64(%#x, %#x) = %#x, want %#x", c, x, got, want)
		}
	}
}

// TestMul64Linear: GF multiplication distributes over XOR, the
// property the whole code rests on.
func TestMul64Linear(t *testing.T) {
	rng := simclock.NewRNG(2)
	for iter := 0; iter < 2000; iter++ {
		c := byte(rng.Uint64())
		x, y := rng.Uint64(), rng.Uint64()
		if mul64(c, x^y) != mul64(c, x)^mul64(c, y) {
			t.Fatalf("mul64(%#x, ·) not linear at %#x, %#x", c, x, y)
		}
	}
}

// oracleDecode is the uncached decode, kept as the test's reference: a
// Gauss-Jordan inverse computed fresh for the slots in the order given.
func oracleDecode(t *testing.T, c *codec, slots []int, values []uint64) []uint64 {
	t.Helper()
	mat := make([][]byte, len(slots))
	for i, s := range slots {
		mat[i] = append([]byte(nil), c.row(s)...)
	}
	inv, err := gfInvertMatrix(mat)
	if err != nil {
		t.Fatalf("oracle: slots %v: %v", slots, err)
	}
	out := make([]uint64, c.m)
	for r := range out {
		for i := range values {
			out[r] ^= mul64(inv[r][i], values[i])
		}
	}
	return out
}

// slotKey is the cache key of an ascending slot set.
func slotKey(slots []int) string {
	b := make([]byte, len(slots))
	for i, s := range slots {
		b[i] = byte(s)
	}
	return string(b)
}

// TestCodecAllErasures: for several geometries, every m-subset of the
// m+k shards decodes back to the original data — the MDS property the
// systematic Vandermonde construction guarantees — and the inverse
// cache gives the same answer as a fresh inversion. Each subset is
// decoded on two rounds of fresh data: the first meets a cold cache
// (a miss), the second a warm one (a hit). Each round passes the slots
// both ascending and shuffled, the order a donor ranking produces.
func TestCodecAllErasures(t *testing.T) {
	for _, geo := range []struct{ m, k int }{{1, 1}, {2, 1}, {3, 2}, {4, 3}, {5, 4}} {
		cod, err := newCodec(geo.m, geo.k)
		if err != nil {
			t.Fatalf("%d+%d: %v", geo.m, geo.k, err)
		}
		rng := simclock.NewRNG(uint64(geo.m*100 + geo.k))
		data := make([]uint64, geo.m)
		parity := make([]uint64, geo.k)
		got := make([]uint64, geo.m)
		subsets := 0
		combinations(geo.m+geo.k, geo.m, func(asc []int) {
			subsets++
			key := slotKey(asc)
			shuffled := append([]int(nil), asc...)
			for i := len(shuffled) - 1; i > 0; i-- {
				j := int(rng.Uint64() % uint64(i+1))
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			orders := [][]int{shuffled, append([]int(nil), asc...)}
			if subsets%2 == 0 {
				// Let the ascending order meet the cold cache half the time.
				orders[0], orders[1] = orders[1], orders[0]
			}
			for round, hit := range []bool{false, true} {
				for i := range data {
					data[i] = rng.Uint64()
				}
				cod.encode(data, parity)
				for n, slots := range orders {
					if _, cached := cod.inv[key]; cached != (hit || n > 0) {
						t.Fatalf("%d+%d slots %v round %d: cached=%v before decode", geo.m, geo.k, slots, round, cached)
					}
					vals := make([]uint64, geo.m)
					for i, s := range slots {
						if s < geo.m {
							vals[i] = data[s]
						} else {
							vals[i] = parity[s-geo.m]
						}
					}
					inSlots, inVals := append([]int(nil), slots...), append([]uint64(nil), vals...)
					if err := cod.decode(slots, vals, got); err != nil {
						t.Fatalf("%d+%d slots %v: %v", geo.m, geo.k, slots, err)
					}
					want := oracleDecode(t, cod, slots, vals)
					for i := range data {
						if want[i] != data[i] {
							t.Fatalf("%d+%d slots %v: oracle data[%d] = %#x, want %#x",
								geo.m, geo.k, slots, i, want[i], data[i])
						}
						if got[i] != want[i] {
							t.Fatalf("%d+%d slots %v round %d: data[%d] = %#x, oracle %#x",
								geo.m, geo.k, slots, round, i, got[i], want[i])
						}
					}
					for i := range slots {
						if slots[i] != inSlots[i] || vals[i] != inVals[i] {
							t.Fatalf("%d+%d: decode reordered its input: %v/%v, was %v/%v",
								geo.m, geo.k, slots, vals, inSlots, inVals)
						}
					}
				}
			}
		})
		if len(cod.inv) != subsets {
			t.Errorf("%d+%d: %d cached inverses for %d slot sets", geo.m, geo.k, len(cod.inv), subsets)
		}
	}
}

// TestCodecRejects: bad geometries and bad decode inputs fail loudly,
// and a failed decode leaves nothing in the inverse cache.
func TestCodecRejects(t *testing.T) {
	if _, err := newCodec(0, 1); err == nil {
		t.Error("0+1 accepted")
	}
	if _, err := newCodec(200, 100); err == nil {
		t.Error("300-shard geometry accepted")
	}
	cod, err := newCodec(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 3)
	if err := cod.decode([]int{0, 1}, []uint64{1, 2}, out); err == nil {
		t.Error("short decode accepted")
	}
	if err := cod.decode([]int{0, 1, 9}, []uint64{1, 2, 3}, out); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := cod.decode([]int{0, -1, 2}, []uint64{1, 2, 3}, out); err == nil {
		t.Error("negative slot accepted")
	}
	// Twice: a singular set must fail again, not come back from the cache.
	for i := 0; i < 2; i++ {
		if err := cod.decode([]int{0, 1, 1}, []uint64{1, 2, 2}, out); err == nil {
			t.Errorf("duplicate slot accepted (attempt %d)", i+1)
		}
	}
	if len(cod.inv) != 0 {
		t.Errorf("rejected decodes cached %d inverses", len(cod.inv))
	}
}

// TestFingerprintDistinct: fingerprints differ across chunks, versions
// and seeds (a smoke test of the mixer, not a cryptographic claim).
func TestFingerprintDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for chunk := uint64(0); chunk < 64; chunk++ {
		for ver := uint32(0); ver < 8; ver++ {
			fp := Fingerprint(42, chunk, ver)
			if seen[fp] {
				t.Fatalf("fingerprint collision at chunk %d version %d", chunk, ver)
			}
			seen[fp] = true
		}
	}
	if Fingerprint(1, 0, 0) == Fingerprint(2, 0, 0) {
		t.Error("seed does not separate fingerprints")
	}
}
