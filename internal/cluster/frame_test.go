package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
)

// frameSeeds returns a real 16-request submit frame and the response
// frame a node answered it with.
func frameSeeds(t testing.TB) (req, resp []byte) {
	t.Helper()
	specs := clusterSpecs()
	n := apiNode(t, "frame-seed", specs)
	f := submitFrame{Token: "frame-seed-1f2e3d-1", Fence: FencingToken{Term: 3, Leader: "rep-1"}}
	for i := 0; i < 16; i++ {
		f.Requests = append(f.Requests, fleet.Request{
			DeviceID: specs[i%len(specs)].ID, Op: blockdev.Op(i % 3), LBA: int64(i) * 4096, Sectors: 8,
		})
	}
	res, err := NewNodeAPI(n, 0).Submit(f.Fence, f.Token, f.Requests)
	if err != nil {
		t.Fatal(err)
	}
	return appendSubmitFrame(nil, &f), appendResultFrame(nil, n.ID(), res)
}

// FuzzNodeFrames feeds every input to both frame decoders. Neither may
// panic or allocate more than the input can describe, and whatever
// either accepts must re-encode to exactly the input.
func FuzzNodeFrames(f *testing.F) {
	req, resp := frameSeeds(f)
	f.Add(req)
	f.Add(resp)
	f.Add(req[:len(req)/2])
	// Counts of 2^40 entries behind a handful of bytes, in both shapes.
	f.Add(binary.AppendUvarint([]byte{frameVersion, 0, 0, 0, 0}, 1<<40))
	f.Add(binary.AppendUvarint([]byte{frameVersion, 0}, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sub, subErr := decodeSubmitFrame(data)
		node, res, resErr := decodeResultFrame(data)
		runtime.ReadMemStats(&after)
		// A request takes at least 4 input bytes and decodes to 40 B; a
		// result takes at least 6 and decodes to 104 B plus its rebuilt
		// error. 64 B per input byte bounds both, and the constant
		// absorbs what the runtime allocates meanwhile.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d B, limit %d", len(data), grew, limit)
		}
		if subErr == nil {
			if got := appendSubmitFrame(nil, &sub); !bytes.Equal(got, data) {
				t.Fatalf("accepted submit frame re-encodes differently:\n got %x\nwant %x", got, data)
			}
		}
		if resErr == nil {
			if got := appendResultFrame(nil, node, res); !bytes.Equal(got, data) {
				t.Fatalf("accepted response frame re-encodes differently:\n got %x\nwant %x", got, data)
			}
		}
	})
}

// TestNodeAPIFrameCoversResult: every field of fleet.Request and
// fleet.Result crosses the frames. The fields are filled by reflection,
// so a field added to either struct fails here until the frame carries
// it.
func TestNodeAPIFrameCoversResult(t *testing.T) {
	var full fleet.Result
	fillFields(t, reflect.ValueOf(&full).Elem())
	// Err and Error are one field on the wire: Error is Err's message.
	full.Err = errors.New(full.Error)
	results := []fleet.Result{full, {DeviceID: "dev-ok", Latency: 90 * time.Microsecond}}
	node, got, err := decodeResultFrame(appendResultFrame(nil, "node-x", results))
	if err != nil || node != "node-x" || len(got) != len(results) {
		t.Fatalf("result frame round trip: node %q, %d results, err %v", node, len(got), err)
	}
	for i, want := range results {
		g := got[i]
		if (g.Err == nil) != (want.Err == nil) || g.Err != nil && g.Err.Error() != want.Err.Error() {
			t.Fatalf("result %d: Err %v, want %v", i, g.Err, want.Err)
		}
		g.Err, want.Err = nil, nil
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("result %d round trip:\n got %+v\nwant %+v", i, g, want)
		}
	}

	var req fleet.Request
	fillFields(t, reflect.ValueOf(&req).Elem())
	reqs := []fleet.Request{req}
	const lastLBA = 1<<20 - 1 // preset A holds 1<<20 sectors
	for _, op := range []blockdev.Op{blockdev.Read, blockdev.Write, blockdev.Trim} {
		reqs = append(reqs, fleet.Request{DeviceID: "dev-a", Op: op, LBA: lastLBA, Sectors: 0})
	}
	in := submitFrame{Token: "tok", Fence: FencingToken{Term: 1 << 40, Leader: "rep-2"}, Requests: reqs}
	out, err := decodeSubmitFrame(appendSubmitFrame(nil, &in))
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("submit frame round trip (err %v):\n got %+v\nwant %+v", err, out, in)
	}
}

// fillFields sets every field of the struct v to a distinct non-zero
// value: strings name their field, bools are true, ints take more than
// one varint byte, and 64-bit integers are large and alternate in sign.
// An error field is left to the caller. A field of any other kind fails
// the test until it is taught here and carried by the frame.
func fillFields(t *testing.T, v reflect.Value) {
	t.Helper()
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Type() == reflect.TypeOf(blockdev.Op(0)):
			f.SetUint(uint64(blockdev.Trim))
		case f.Type() == errType:
		case f.Kind() == reflect.String:
			f.SetString("value-of-" + name)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Int:
			f.SetInt(300 + int64(i))
		case f.Kind() == reflect.Int64:
			x := int64(1)<<50 + int64(i)
			if i%2 == 1 {
				x = -x
			}
			f.SetInt(x)
		default:
			t.Fatalf("%s.%s has kind %s: teach fillFields and the frame to carry it", v.Type(), name, f.Kind())
		}
	}
}
