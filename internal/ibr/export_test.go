package ibr

import (
	"fmt"
	"reflect"

	"quicsand/internal/netmodel"
	"quicsand/internal/tlsmini"
)

// BuildTemplates builds templates from rng and identity at once, as a
// generator's first packet does: the fixture of tests that patch
// packets without a generator, and the reference the lazy build is
// held to.
func BuildTemplates(rng *netmodel.RNG, identity *tlsmini.Identity) (*Templates, error) {
	t := newTemplates(rng, identity)
	var err error
	t.once.Do(func() { err = t.build() })
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Templates returns the generator's templates, built or not.
func (g *Generator) Templates() *Templates { return g.tpl }

// Built reports whether t's handshakes have run. Call it only when no
// other goroutine can be building t.
func (t *Templates) Built() bool { return t.perVersion != nil }

// DiffTemplates names a version whose versionTemplates differ between
// a and b in any field, or returns "" when every version is equal. Both
// must be built.
func DiffTemplates(a, b *Templates) string {
	if len(a.perVersion) != len(b.perVersion) {
		return fmt.Sprintf("%d versions vs %d", len(a.perVersion), len(b.perVersion))
	}
	for v, va := range a.perVersion {
		if !reflect.DeepEqual(va, b.perVersion[v]) {
			return v.String()
		}
	}
	return ""
}

// KindD1 is the first-flight response shape, for callers of
// Templates.ResponsePacket outside the package.
const KindD1 = kindD1
