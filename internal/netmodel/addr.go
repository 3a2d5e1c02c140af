package netmodel

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The entire simulation is
// IPv4-only, matching the paper's telescope.
type Addr uint32

// String formats dotted-quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netmodel: bad address %q", s)
	}
	var a uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("netmodel: bad address %q", s)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// MustAddr parses s or panics; for static tables.
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Base Addr
	Bits int
}

// MustPrefix parses "a.b.c.d/n" or panics; for static tables.
func MustPrefix(s string) Prefix {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		panic("netmodel: prefix missing mask: " + s)
	}
	base := MustAddr(s[:i])
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > 32 {
		panic("netmodel: bad mask: " + s)
	}
	p := Prefix{Base: base, Bits: bits}
	if p.Base&^p.mask() != 0 {
		panic("netmodel: base has host bits set: " + s)
	}
	return p
}

func (p Prefix) mask() Addr {
	if p.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a&p.mask() == p.Base
}

// Size returns the number of addresses covered.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

// Random draws a uniform address from the prefix.
func (p Prefix) Random(r *RNG) Addr {
	return p.Base + Addr(r.Uint64()%p.Size())
}

// Nth returns base+n, for deterministic host enumeration.
func (p Prefix) Nth(n uint64) Addr { return p.Base + Addr(n%p.Size()) }

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Base) || q.Contains(p.Base)
}

// String formats CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Base, p.Bits)
}
