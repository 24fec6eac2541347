package ecvol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWireGolden pins ReadMode's wire form against a file under
// testdata/: every mode name, and the decode results for malformed
// input.
func TestWireGolden(t *testing.T) {
	names := []string{"direct", "steered", "reconstruct"}
	var b bytes.Buffer
	for v := 0; v <= len(names); v++ {
		m := ReadMode(v)
		j, err := json.Marshal(m)
		fmt.Fprintf(&b, "ReadMode(%d): %%s=%s %%v=%v json=%s err=%v\n", v, m, m, j, err)
	}
	// The escaped spelling of "direct" is valid JSON for it.
	inputs := []string{`"nope"`, `""`, `null`, `7`, `true`, `"\u0064irect"`}
	for _, n := range names {
		inputs = append(inputs, `"`+n+`"`)
	}
	for _, in := range inputs {
		m := Reconstructed
		err := json.Unmarshal([]byte(in), &m)
		fmt.Fprintf(&b, "decode ReadMode %s: value=%d err=%v\n", in, m, err)
		field := ReadResult{Mode: Reconstructed}
		err = json.Unmarshal([]byte(`{"mode":`+in+`}`), &field)
		fmt.Fprintf(&b, "decode field ReadMode %s: value=%d err=%v\n", in, field.Mode, err)
	}
	got := b.Bytes()
	want, err := os.ReadFile(filepath.Join("testdata", "wire_codec.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadMode codec moved:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
