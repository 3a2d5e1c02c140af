package netmodel

import (
	"fmt"
	"sort"
)

// NetworkType mirrors PeeringDB's network-type taxonomy as used in
// Figure 5 of the paper.
type NetworkType int

// PeeringDB network types.
const (
	TypeUnknown NetworkType = iota
	TypeEyeball             // "Cable/DSL/ISP"
	TypeContent
	TypeEnterprise
	TypeNSP
	TypeOther
)

// String returns the label used on the Figure 5 axis.
func (t NetworkType) String() string {
	switch t {
	case TypeEyeball:
		return "Cable/DSL/ISP"
	case TypeContent:
		return "Content"
	case TypeEnterprise:
		return "Enterprise"
	case TypeNSP:
		return "NSP"
	case TypeOther:
		return "Other"
	case TypeUnknown:
		return "Unknown"
	}
	return fmt.Sprintf("NetworkType(%d)", int(t))
}

// AllNetworkTypes lists the Figure 5 row order.
var AllNetworkTypes = []NetworkType{TypeEyeball, TypeContent, TypeEnterprise, TypeNSP, TypeOther, TypeUnknown}

// AS is one autonomous system in the simulated Internet.
type AS struct {
	ASN      uint32
	Name     string
	Type     NetworkType
	Country  string // ISO 3166-1 alpha-2
	Prefixes []Prefix

	// hosts draws a prefix index weighted by prefix size; built by
	// Registry.Add (nil for an AS without prefixes).
	hosts *Sampler
}

// Registry is the PeeringDB stand-in: a prefix-to-AS longest-prefix
// database over disjoint allocations.
type Registry struct {
	asns map[uint32]*AS
	// flat prefix table sorted by base address; prefixes are disjoint
	// by construction (validated in Add).
	prefixes []regEntry
	sorted   bool
}

type regEntry struct {
	prefix Prefix
	as     *AS
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{asns: make(map[uint32]*AS)}
}

// Add registers an AS and its prefixes. It returns an error if any
// prefix overlaps an existing allocation — the simulated Internet keeps
// allocations disjoint so longest-prefix match degenerates to interval
// lookup.
func (reg *Registry) Add(as *AS) error {
	if _, dup := reg.asns[as.ASN]; dup {
		return fmt.Errorf("netmodel: duplicate ASN %d", as.ASN)
	}
	for _, p := range as.Prefixes {
		for _, e := range reg.prefixes {
			if p.Overlaps(e.prefix) {
				return fmt.Errorf("netmodel: %s (AS%d) overlaps %s (AS%d)",
					p, as.ASN, e.prefix, e.as.ASN)
			}
		}
	}
	reg.asns[as.ASN] = as
	if len(as.Prefixes) > 0 {
		sizes := make([]float64, len(as.Prefixes))
		for i, p := range as.Prefixes {
			sizes[i] = float64(p.Size())
		}
		as.hosts = NewSampler(sizes)
	}
	for _, p := range as.Prefixes {
		reg.prefixes = append(reg.prefixes, regEntry{prefix: p, as: as})
	}
	reg.sorted = false
	return nil
}

// MustAdd registers or panics; for the static builder.
func (reg *Registry) MustAdd(as *AS) {
	if err := reg.Add(as); err != nil {
		panic(err)
	}
}

func (reg *Registry) ensureSorted() {
	if reg.sorted {
		return
	}
	sort.Slice(reg.prefixes, func(i, j int) bool {
		return reg.prefixes[i].prefix.Base < reg.prefixes[j].prefix.Base
	})
	reg.sorted = true
}

// Lookup maps an address to its AS, or nil for unallocated space.
func (reg *Registry) Lookup(a Addr) *AS {
	reg.ensureSorted()
	// Binary search for the last prefix with Base <= a.
	i := sort.Search(len(reg.prefixes), func(i int) bool {
		return reg.prefixes[i].prefix.Base > a
	}) - 1
	if i < 0 {
		return nil
	}
	if reg.prefixes[i].prefix.Contains(a) {
		return reg.prefixes[i].as
	}
	return nil
}

// TypeOf returns the network type for an address (TypeUnknown for
// unallocated space), the join Figure 5 performs per session source.
func (reg *Registry) TypeOf(a Addr) NetworkType {
	if as := reg.Lookup(a); as != nil {
		return as.Type
	}
	return TypeUnknown
}

// CountryOf returns the ISO country for an address ("" if unknown).
func (reg *Registry) CountryOf(a Addr) string {
	if as := reg.Lookup(a); as != nil {
		return as.Country
	}
	return ""
}

// ByASN returns the AS registered under asn, or nil.
func (reg *Registry) ByASN(asn uint32) *AS { return reg.asns[asn] }
