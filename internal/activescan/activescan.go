// Package activescan is the stand-in for the Rüth et al. active QUIC
// scans the paper correlates against: a census of QUIC-speaking
// servers with their operator and deployed version, plus helpers the
// victim-correlation join (98 % of attacks hit known QUIC servers) and
// the Figure 9 per-provider split rely on.
package activescan

import (
	"quicsand/internal/netmodel"
	"quicsand/internal/wire"
)

// Server is one census entry.
type Server struct {
	Addr    netmodel.Addr
	ASN     uint32
	Org     string
	Version wire.Version // dominant deployed version at scan time
}

// Census is the scan result set. Servers is one array, allocated at
// its final size, and the address index holds positions in it rather
// than pointers: a pointer into an array that append outgrew would keep
// that whole array live for as long as the census is.
type Census struct {
	Servers []Server
	byAddr  map[netmodel.Addr]int32
}

// Config sizes the census per operator.
type Config struct {
	// ServersPerOrg is the census size per content operator. The real
	// 2021 scans found ~2 M QUIC servers; the census only needs to
	// cover the victim population, so the default (2048) keeps joins
	// fast at full paper scale.
	ServersPerOrg int
}

// Build enumerates servers deterministically from each content
// operator's allocation. The deployed version matches the paper's
// observations: Google on draft-29, Facebook on mvfst (draft-27
// family), everyone else on v1 or draft-29.
func Build(in *netmodel.Internet, rng *netmodel.RNG, cfg Config) *Census {
	if cfg.ServersPerOrg == 0 {
		cfg.ServersPerOrg = 2048
	}
	n := cfg.ServersPerOrg * len(in.ContentASNs)
	c := &Census{Servers: make([]Server, 0, n), byAddr: make(map[netmodel.Addr]int32, n)}
	r := rng.Fork("activescan")
	for _, asn := range in.ContentASNs {
		as := in.Registry.ByASN(asn)
		if as == nil {
			continue
		}
		var version wire.Version
		switch asn {
		case netmodel.ASNGoogle:
			version = wire.VersionDraft29
		case netmodel.ASNFacebook:
			version = wire.VersionMVFST27
		case netmodel.ASNCloudflare:
			version = wire.Version1
		default:
			version = wire.VersionDraft29
		}
		// Content-AS allocations are disjoint, so the one index
		// rejects exactly the repeats a per-operator set would.
		for end := len(c.Servers) + cfg.ServersPerOrg; len(c.Servers) < end; {
			a := in.RandomHostOf(asn, r)
			if _, dup := c.byAddr[a]; dup {
				continue
			}
			c.byAddr[a] = int32(len(c.Servers))
			c.Servers = append(c.Servers, Server{Addr: a, ASN: asn, Org: as.Name, Version: version})
		}
	}
	return c
}

// Lookup returns the census entry for an address, or nil.
func (c *Census) Lookup(a netmodel.Addr) *Server {
	if i, ok := c.byAddr[a]; ok {
		return &c.Servers[i]
	}
	return nil
}

// IsKnown reports census membership — the paper's "well-known QUIC
// server" predicate.
func (c *Census) IsKnown(a netmodel.Addr) bool {
	_, ok := c.byAddr[a]
	return ok
}

// OrgOf returns the operator name ("" when unknown).
func (c *Census) OrgOf(a netmodel.Addr) string {
	if i, ok := c.byAddr[a]; ok {
		return c.Servers[i].Org
	}
	return ""
}

// ByOrg returns the census entries of one operator.
func (c *Census) ByOrg(org string) []Server {
	var out []Server
	for _, s := range c.Servers {
		if s.Org == org {
			out = append(out, s)
		}
	}
	return out
}

// KnownShare returns the percentage of the given victims present in
// the census — the §5.2 "98 % of attacks target well-known QUIC
// servers" figure.
func (c *Census) KnownShare(victims []netmodel.Addr) float64 {
	if len(victims) == 0 {
		return 0
	}
	known := 0
	for _, v := range victims {
		if c.IsKnown(v) {
			known++
		}
	}
	return float64(known) / float64(len(victims)) * 100
}
