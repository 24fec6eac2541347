package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestClusterGoldenRenders pins the text renders of the cluster
// experiments at seed 42, scale 1 to files under testdata/. The
// coordinator underneath may be restructured freely; what these
// experiments print must not move by a byte.
func TestClusterGoldenRenders(t *testing.T) {
	for _, name := range []string{"quorum", "partition", "failover"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := Run(name, Opts{Seed: 42, Scale: 1}, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("-run %s render moved:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
			}
		})
	}
}
