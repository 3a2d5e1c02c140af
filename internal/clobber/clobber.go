// Package clobber keeps a command's outputs off its inputs and off each
// other. Every file a command writes is created or truncated when the
// run starts or ends, so an output that names an input destroys it
// (convert -i F -o F used to delete F), and two outputs that name one
// file leave only the last writer's bytes. Commands call Check after
// parsing their flags and before creating any file.
package clobber

import (
	"fmt"
	"os"
	"path/filepath"
)

// Flag is one path-valued command-line flag.
type Flag struct {
	Name string // as the user typed it, e.g. "-o"
	Path string // "" (unset) and "-" (stdout) name no file
}

// Check returns an error naming the first output that is the same file
// as an input or as an earlier output, and nil when all are distinct.
// Two paths are the same file when both exist and os.SameFile says so
// for a regular file (a hard link or another spelling of the path
// included; devices such as /dev/null may be shared freely), or, when
// either does not exist yet, when their absolute cleaned forms match.
func Check(inputs, outputs []Flag) error {
	var seen []Flag
	for _, f := range inputs {
		if names(f) {
			seen = append(seen, f)
		}
	}
	for _, out := range outputs {
		if !names(out) {
			continue
		}
		for _, prev := range seen {
			if same(out.Path, prev.Path) {
				return fmt.Errorf("%s %s is the same file as %s %s: refusing to overwrite it", out.Name, out.Path, prev.Name, prev.Path)
			}
		}
		seen = append(seen, out)
	}
	return nil
}

// names reports whether f names a file.
func names(f Flag) bool { return f.Path != "" && f.Path != "-" }

// same reports whether paths a and b name one file.
func same(a, b string) bool {
	sa, errA := os.Stat(a)
	sb, errB := os.Stat(b)
	if errA == nil && errB == nil {
		return sa.Mode().IsRegular() && os.SameFile(sa, sb)
	}
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	return errA == nil && errB == nil && absA == absB
}
