package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownWorkloadFailsBeforeDiagnosis: a misspelt -validate name
// fails with the accepted names before the device is preconditioned or
// diagnosed.
func TestUnknownWorkloadFailsBeforeDiagnosis(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "D", 7, "RWMixed", 100, "", "")
	if err == nil || !strings.Contains(err.Error(), `"RW Mixed"`) {
		t.Fatalf("err = %v, want an unknown-workload error naming \"RW Mixed\"", err)
	}
	if strings.Contains(out.String(), "running diagnosis") || strings.Contains(out.String(), "preconditioning") {
		t.Fatalf("ran the device before rejecting the workload:\n%s", out.String())
	}
}
