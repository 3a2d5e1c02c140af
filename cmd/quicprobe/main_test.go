package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"quicsand/internal/wire"
)

// TestDemoVersions runs -demo at each version the paper saw deployed:
// the handshake completes against both local servers, and only the
// second demands RETRY.
func TestDemoVersions(t *testing.T) {
	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionMVFST27} {
		t.Run(v.String(), func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-demo", "-version", fmt.Sprint(uint32(v)), "-timeout", "2s"}, &out); err != nil {
				t.Fatal(err)
			}
			s := out.String()
			for _, want := range []string{
				"local server (retry=false)", "local server (retry=true)",
				"RETRY NOT DEPLOYED", "RETRY deployed (+1 RTT)",
				"server: initials=",
			} {
				if !strings.Contains(s, want) {
					t.Errorf("missing %q:\n%s", want, s)
				}
			}
			if n := strings.Count(s, fmt.Sprintf("completed=true  version=%-14s", v)); n != 2 {
				t.Errorf("%d completed handshakes at %v, want 2:\n%s", n, v, s)
			}
		})
	}
}

func TestNoTargetIsUsageError(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("run without a target = %v, want a usage error", err)
	}
}
