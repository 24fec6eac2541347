package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/simclock"
)

// The node plane's submit RPC carries a binary frame, not JSON. The
// HTTP body is exactly one frame (Content-Length delimits it); every
// integer is a varint (signed ones zigzag-encoded, as encoding/binary
// does), and every string is a uvarint length followed by its bytes.
//
// Request, POST /v1/node/submit with Content-Type frameContentType:
//
//	version byte     frameVersion
//	token   string   idempotency token
//	term    varint   fencing term (0 = unfenced)
//	leader  string   fencing leader
//	trace   uvarint  trace ID, reserved for cross-plane tracing; 0 today
//	count   uvarint  then count × {device string, op byte,
//	                 lba varint, sectors varint}
//
// Response, 200 only (any other status carries the JSON {error} body):
//
//	version byte     frameVersion
//	node    string   the answering node
//	count   uvarint  then count × {device string, flags byte,
//	                 eet varint, latency varint, completed_at varint,
//	                 retries varint, error string iff flagError}
//
// The decoders accept exactly what the encoders produce: minimal
// varints, known ops and flags, no trailing bytes, and no count larger
// than the bytes left could hold. Re-encoding anything they accept
// gives back the same bytes, and no input allocates more than it
// describes.

const (
	frameVersion     = 1
	frameContentType = "application/x-ssdcheck-frame"
)

// Result flag bits.
const (
	flagHL = 1 << iota
	flagObservedHL
	flagFallback
	flagTimedOut
	flagError
	flagsKnown = flagError<<1 - 1
)

// The smallest encoding of one entry: every field takes at least a byte.
const (
	minRequestBytes = 4 // device, op, lba, sectors
	minResultBytes  = 6 // device, flags, eet, latency, completed_at, retries
)

// submitFrame is one submit request as it crosses the wire.
type submitFrame struct {
	Token    string
	Fence    FencingToken
	Trace    uint64
	Requests []fleet.Request
}

func appendSubmitFrame(b []byte, f *submitFrame) []byte {
	b = append(b, frameVersion)
	b = appendString(b, f.Token)
	b = binary.AppendVarint(b, f.Fence.Term)
	b = appendString(b, f.Fence.Leader)
	b = binary.AppendUvarint(b, f.Trace)
	b = binary.AppendUvarint(b, uint64(len(f.Requests)))
	for _, r := range f.Requests {
		b = appendString(b, r.DeviceID)
		b = append(b, byte(r.Op))
		b = binary.AppendVarint(b, r.LBA)
		b = binary.AppendVarint(b, int64(r.Sectors))
	}
	return b
}

func decodeSubmitFrame(b []byte) (submitFrame, error) {
	d := frameDecoder{b: b}
	var f submitFrame
	d.version()
	f.Token = d.string()
	f.Fence.Term = d.varint()
	f.Fence.Leader = d.string()
	f.Trace = d.uvarint()
	if n := d.count(minRequestBytes); n > 0 {
		f.Requests = make([]fleet.Request, n)
		for i := 0; i < n && d.err == nil; i++ {
			r := &f.Requests[i]
			r.DeviceID = d.string()
			if r.Op = blockdev.Op(d.byte()); r.Op > blockdev.Trim {
				d.fail("unknown op %d", r.Op)
			}
			r.LBA = d.varint()
			r.Sectors = d.int()
		}
	}
	return f, d.end()
}

func appendResultFrame(b []byte, node string, res []fleet.Result) []byte {
	b = append(b, frameVersion)
	b = appendString(b, node)
	b = binary.AppendUvarint(b, uint64(len(res)))
	for i := range res {
		r := &res[i]
		msg := r.Error
		if msg == "" && r.Err != nil {
			msg = r.Err.Error()
		}
		b = appendString(b, r.DeviceID)
		b = append(b, bit(r.HL, flagHL)|bit(r.ObservedHL, flagObservedHL)|
			bit(r.Fallback, flagFallback)|bit(r.TimedOut, flagTimedOut)|bit(msg != "", flagError))
		b = binary.AppendVarint(b, int64(r.EET))
		b = binary.AppendVarint(b, int64(r.Latency))
		b = binary.AppendVarint(b, int64(r.CompletedAt))
		b = binary.AppendVarint(b, int64(r.Retries))
		if msg != "" {
			b = appendString(b, msg)
		}
	}
	return b
}

// decodeResultFrame decodes a submit response. A failed result's Err
// is rebuilt from its message, so decoded Results keep the local
// contract (Err non-nil on failure); the typed sentinels it wrapped do
// not cross the wire.
func decodeResultFrame(b []byte) (node string, res []fleet.Result, err error) {
	d := frameDecoder{b: b}
	d.version()
	node = d.string()
	if n := d.count(minResultBytes); n > 0 {
		res = make([]fleet.Result, n)
		for i := 0; i < n && d.err == nil; i++ {
			r := &res[i]
			r.DeviceID = d.string()
			flags := d.byte()
			if flags&^flagsKnown != 0 {
				d.fail("unknown result flags %#x", flags)
			}
			r.HL = flags&flagHL != 0
			r.ObservedHL = flags&flagObservedHL != 0
			r.Fallback = flags&flagFallback != 0
			r.TimedOut = flags&flagTimedOut != 0
			r.EET = time.Duration(d.varint())
			r.Latency = time.Duration(d.varint())
			r.CompletedAt = simclock.Time(d.varint())
			r.Retries = d.int()
			if flags&flagError != 0 {
				if r.Error = d.string(); r.Error == "" {
					d.fail("result %d flags an error without a message", i)
				}
				r.Err = errors.New(r.Error)
			}
		}
	}
	return node, res, d.end()
}

func bit(on bool, flag byte) byte {
	if on {
		return flag
	}
	return 0
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// frameDecoder reads a frame front to back. The first failure sticks:
// every later read returns a zero value, and end reports the failure.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("frame: "+format, args...)
	}
	d.b = nil
}

func (d *frameDecoder) version() {
	if v := d.byte(); d.err == nil && v != frameVersion {
		d.fail("version %d, want %d", v, frameVersion)
	}
}

func (d *frameDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *frameDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("truncated or overflowing varint")
		return 0
	case n > 1 && d.b[n-1] == 0:
		// A zero final group adds nothing: a longer spelling of a value
		// the encoder writes shorter.
		d.fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *frameDecoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *frameDecoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("%d overflows int", v)
	}
	return int(v)
}

func (d *frameDecoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("%d-byte string with %d bytes left", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads an entry count and checks it against the bytes left, at
// min bytes per entry, before the caller allocates for it.
func (d *frameDecoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *frameDecoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// framePool recycles the buffers frames are read into and encoded in.
// A buffer grown past maxPooledFrame is dropped rather than kept.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledFrame = 64 << 10

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(p *[]byte) {
	if cap(*p) <= maxPooledFrame {
		*p = (*p)[:0]
		framePool.Put(p)
	}
}

// readBody appends everything r yields to b.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
