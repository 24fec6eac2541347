package ecvol

import "fmt"

// Reed-Solomon coding over GF(2^8) for m+k stripes.
//
// Chunk payloads are modeled as 64-bit fingerprints (see Fingerprint);
// the code treats each fingerprint as 8 independent bytes, so the
// arithmetic is the standard byte-wise Reed-Solomon every storage
// system uses — the systematic encoding matrix is a Vandermonde matrix
// normalized so its top m rows are the identity, which guarantees every
// m×m submatrix is invertible and therefore that any m of the m+k
// shards reconstruct the data.

// GF(2^8) tables for the AES-adjacent polynomial x^8+x^4+x^3+x^2+1
// (0x11d), generator 2. exp is doubled so gfMul can skip the mod 255.
var (
	gfExp [510]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfExp[i+255] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("ecvol: inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// mul64 multiplies each of the 8 bytes of x by c in GF(2^8) — one
// Reed-Solomon coefficient applied to a whole chunk fingerprint.
func mul64(c byte, x uint64) uint64 {
	switch c {
	case 0:
		return 0
	case 1:
		return x
	}
	var out uint64
	for i := 0; i < 64; i += 8 {
		if b := byte(x >> i); b != 0 {
			out |= uint64(gfExp[int(gfLog[c])+int(gfLog[b])]) << i
		}
	}
	return out
}

// codec is one m+k Reed-Solomon code: enc holds the k parity rows of
// the systematic encoding matrix (the data rows are the identity).
//
// decode keeps a cache and scratch space, so a codec is not safe for
// concurrent use; the volume calls it under its mutex.
type codec struct {
	m, k int
	enc  [][]byte // k rows × m cols

	// inv caches the decode matrix of each ascending slot set, keyed by
	// the slot numbers as bytes (m+k ≤ 255, so a slot fits one). Only
	// decodable sets enter it, so it holds at most C(m+k, m) entries.
	inv map[string][][]byte
	// key and vals are decode's scratch: the caller's (slot, value)
	// pairs sorted by slot.
	key  []byte
	vals []uint64
}

// newCodec builds the systematic code: rows m..m+k-1 of
// Vandermonde(m+k, m) × inverse(top m rows).
func newCodec(m, k int) (*codec, error) {
	if m < 1 || k < 1 || m+k > 255 {
		return nil, fmt.Errorf("ecvol: unsupported geometry %d+%d", m, k)
	}
	// Vandermonde rows: v[r][c] = r^c (0^0 = 1).
	vand := make([][]byte, m+k)
	for r := range vand {
		vand[r] = make([]byte, m)
		e := byte(1)
		for c := 0; c < m; c++ {
			vand[r][c] = e
			e = gfMul(e, byte(r))
		}
	}
	top := make([][]byte, m)
	for r := range top {
		top[r] = append([]byte(nil), vand[r]...)
	}
	inv, err := gfInvertMatrix(top)
	if err != nil {
		return nil, fmt.Errorf("ecvol: vandermonde top not invertible: %w", err)
	}
	c := &codec{
		m: m, k: k,
		inv:  make(map[string][][]byte),
		key:  make([]byte, m),
		vals: make([]uint64, m),
	}
	for r := m; r < m+k; r++ {
		row := make([]byte, m)
		for col := 0; col < m; col++ {
			var acc byte
			for i := 0; i < m; i++ {
				acc ^= gfMul(vand[r][i], inv[i][col])
			}
			row[col] = acc
		}
		c.enc = append(c.enc, row)
	}
	return c, nil
}

// row returns the encoding-matrix row for shard slot s of the stripe:
// identity rows for the m data slots, parity rows after.
func (c *codec) row(s int) []byte {
	if s < c.m {
		row := make([]byte, c.m)
		row[s] = 1
		return row
	}
	return c.enc[s-c.m]
}

// encode computes the k parity fingerprints for one stripe's data.
func (c *codec) encode(data []uint64, parity []uint64) {
	for r := 0; r < c.k; r++ {
		var acc uint64
		for j := 0; j < c.m; j++ {
			acc ^= mul64(c.enc[r][j], data[j])
		}
		parity[r] = acc
	}
}

// parityRow computes the single parity fingerprint for parity row r —
// what a flush of that slot would write.
func (c *codec) parityRow(r int, data []uint64) uint64 {
	var acc uint64
	for j := 0; j < c.m; j++ {
		acc ^= mul64(c.enc[r][j], data[j])
	}
	return acc
}

// decode recovers the full data vector from any m shard slots into
// out (len m). slots lists which stripe slots (0..m+k-1) the values
// came from, in any order; it must contain exactly m distinct entries.
// The pairs are sorted by slot, and the inverse for that slot set is
// computed once and cached, so a repeat decode allocates nothing.
// Reordering the rows of a linear system does not change its solution,
// so the result is the same for every order of the same pairs.
func (c *codec) decode(slots []int, values, out []uint64) error {
	if len(slots) != c.m || len(values) != c.m {
		return fmt.Errorf("ecvol: decode needs exactly %d shards, got %d", c.m, len(slots))
	}
	// Insertion sort of the (slot, value) pairs into the scratch key.
	for i, s := range slots {
		if s < 0 || s >= c.m+c.k {
			return fmt.Errorf("ecvol: decode slot %d out of range", s)
		}
		j := i
		for ; j > 0 && c.key[j-1] > byte(s); j-- {
			c.key[j], c.vals[j] = c.key[j-1], c.vals[j-1]
		}
		c.key[j], c.vals[j] = byte(s), values[i]
	}
	inv, ok := c.inv[string(c.key)]
	if !ok {
		mat := make([][]byte, c.m)
		for i, s := range c.key {
			// Copy: gfInvertMatrix consumes its input, and parity rows
			// alias the codec's long-lived encoding matrix.
			mat[i] = append([]byte(nil), c.row(int(s))...)
		}
		var err error
		if inv, err = gfInvertMatrix(mat); err != nil {
			return fmt.Errorf("ecvol: shard subset not decodable: %w", err)
		}
		c.inv[string(c.key)] = inv
	}
	for r := 0; r < c.m; r++ {
		var acc uint64
		for i := 0; i < c.m; i++ {
			acc ^= mul64(inv[r][i], c.vals[i])
		}
		out[r] = acc
	}
	return nil
}

// gfInvertMatrix inverts a square GF(2^8) matrix by Gauss-Jordan
// elimination. The input rows are consumed.
func gfInvertMatrix(a [][]byte) ([][]byte, error) {
	n := len(a)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		scale := gfInv(a[col][col])
		for c := 0; c < n; c++ {
			a[col][c] = gfMul(a[col][c], scale)
			inv[col][c] = gfMul(inv[col][c], scale)
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for c := 0; c < n; c++ {
				a[r][c] ^= gfMul(f, a[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return inv, nil
}
