package clobber

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in")
	if err := os.WriteFile(in, []byte("capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link")
	if err := os.Link(in, link); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh")
	for _, tc := range []struct {
		name        string
		in, out     []Flag
		wantErrPart string // "" = distinct
	}{
		{"distinct", []Flag{{"-i", in}}, []Flag{{"-o", fresh}, {"-manifest", fresh + ".json"}}, ""},
		{"unset and stdout", []Flag{{"-i", in}, {"-detect-config", ""}}, []Flag{{"-alerts", "-"}, {"-manifest", "-"}, {"-o", ""}}, ""},
		{"devices are shared", nil, []Flag{{"-manifest", os.DevNull}, {"-trace-out", os.DevNull}}, ""},
		{"output is input", []Flag{{"-i", in}}, []Flag{{"-o", in}}, "-o " + in + " is the same file as -i"},
		{"hard link", []Flag{{"-i", in}}, []Flag{{"-alerts", link}}, "-alerts " + link + " is the same file as -i"},
		{"other spelling", []Flag{{"-i", in}}, []Flag{{"-o", dir + "/./in"}}, "is the same file as -i"},
		{"two new outputs", nil, []Flag{{"-o", fresh}, {"-manifest", filepath.Join(dir, "x", "..", "fresh")}}, "is the same file as -o"},
	} {
		err := Check(tc.in, tc.out)
		switch {
		case tc.wantErrPart == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErrPart != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErrPart)):
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.wantErrPart)
		}
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("Check created a file (stat err = %v)", err)
	}
}
