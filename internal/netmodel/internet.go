package netmodel

// This file builds the concrete simulated Internet the experiments run
// against. Prefixes are loosely modelled on real 2021 allocations but
// are synthetic: what matters downstream is the *join structure* —
// which sources are research scanners, which are eyeballs, which
// content networks host QUIC servers — not the literal numbers.

// TelescopePrefix is the simulated /9 darknet (an homage to the real
// UCSD telescope's 44/9 AMPRNet block). It covers 2^23 addresses,
// 1/512 of the IPv4 space, so a uniformly spoofed flood deposits ~2 ‰
// of its backscatter here.
var TelescopePrefix = MustPrefix("44.0.0.0/9")

// Well-known ASNs used throughout the experiments.
const (
	ASNGoogle     uint32 = 15169
	ASNFacebook   uint32 = 32934
	ASNCloudflare uint32 = 13335
	ASNAkamai     uint32 = 20940
	ASNFastly     uint32 = 54113
	ASNTUM        uint32 = 12816
	ASNRWTH       uint32 = 680
)

// Internet bundles the registry with the collections the generators
// and analyses reference by role.
type Internet struct {
	Registry *Registry

	// ResearchASNs identify the two university scanners whose sweeps
	// dominate Figure 2.
	ResearchASNs []uint32

	// ContentASNs host the QUIC servers that appear as flood victims.
	ContentASNs []uint32

	// EyeballASNs house the scanning bots, weighted per country to
	// match the paper's origin mix (BD 34 %, US 27 %, DZ 8 %, rest
	// elsewhere).
	EyeballASNs []uint32

	// research holds the ResearchASNs' prefixes as (mask, base) pairs, so
	// the per-packet sanitization test is two mask compares instead of a
	// registry search. Allocations are disjoint (Registry.Add rejects
	// overlap), which is what makes "inside one of these prefixes" equal
	// to "Lookup returns a research AS".
	research []maskedBase
}

type maskedBase struct{ mask, base Addr }

// BuildInternet constructs the simulated topology. It panics on any
// overlap in the static table (a build-time invariant, unit-tested).
func BuildInternet() *Internet {
	reg := NewRegistry()

	add := func(asn uint32, name string, t NetworkType, country string, prefixes ...string) {
		as := &AS{ASN: asn, Name: name, Type: t, Country: country}
		for _, p := range prefixes {
			as.Prefixes = append(as.Prefixes, MustPrefix(p))
		}
		reg.MustAdd(as)
	}

	// Research scanners (PeeringDB would class them Educational /
	// Research; the paper identifies them by origin, not type).
	add(ASNTUM, "TUM", TypeOther, "DE", "129.187.0.0/16")
	add(ASNRWTH, "RWTH", TypeOther, "DE", "137.226.0.0/16")

	// Content providers operating QUIC in April 2021.
	add(ASNGoogle, "Google", TypeContent, "US",
		"142.250.0.0/15", "172.217.0.0/16", "216.58.192.0/19", "74.125.0.0/16", "209.85.128.0/17")
	add(ASNFacebook, "Facebook", TypeContent, "US",
		"157.240.0.0/16", "31.13.64.0/18", "179.60.192.0/22", "185.60.216.0/22")
	add(ASNCloudflare, "Cloudflare", TypeContent, "US", "104.16.0.0/13", "172.64.0.0/13")
	add(ASNAkamai, "Akamai", TypeContent, "US", "23.32.0.0/11")
	add(ASNFastly, "Fastly", TypeContent, "US", "151.101.0.0/16")
	add(22822, "Limelight", TypeContent, "US", "68.142.64.0/18")

	// Eyeball networks (bot habitats). Country mix feeds §5.2's
	// GreyNoise-correlated origin shares.
	add(63526, "GrameenLink", TypeEyeball, "BD", "103.110.0.0/15")
	add(58717, "DhakaFiber", TypeEyeball, "BD", "114.130.0.0/16")
	add(45245, "BanglaNet", TypeEyeball, "BD", "27.147.0.0/16")
	add(7922, "Comcast", TypeEyeball, "US", "73.0.0.0/8")
	add(20115, "Charter", TypeEyeball, "US", "71.80.0.0/13")
	add(7018, "ATT", TypeEyeball, "US", "99.0.0.0/10")
	add(36947, "AlgerieTelecom", TypeEyeball, "DZ", "41.96.0.0/12")
	add(45899, "VNPT", TypeEyeball, "VN", "14.160.0.0/11")
	add(4134, "ChinaNet", TypeEyeball, "CN", "59.32.0.0/11")
	add(12389, "Rostelecom", TypeEyeball, "RU", "95.24.0.0/13")
	add(28573, "Claro", TypeEyeball, "BR", "177.32.0.0/11")
	add(9829, "BSNL", TypeEyeball, "IN", "117.192.0.0/10")

	// Transit providers: backscatter of TCP floods against NSP-hosted
	// targets, plus generic noise.
	add(3356, "Level3", TypeNSP, "US", "4.0.0.0/9")
	add(174, "Cogent", TypeNSP, "US", "38.0.0.0/8")
	add(2914, "NTT", TypeNSP, "JP", "129.250.0.0/16")
	add(1299, "Telia", TypeNSP, "SE", "62.115.0.0/16")
	add(6461, "Zayo", TypeNSP, "US", "64.125.0.0/16")

	// Enterprises and miscellaneous.
	add(64500, "EnterpriseA", TypeEnterprise, "US", "150.10.0.0/16")
	add(64501, "EnterpriseB", TypeEnterprise, "DE", "162.40.0.0/16")
	add(64502, "IXPFabric", TypeOther, "DE", "80.81.192.0/21")
	add(64503, "MeasurementCo", TypeOther, "SE", "89.128.0.0/17")

	// Sort the prefix table now: the built Internet is shared
	// read-only across pipeline shards, and a lazy first-Lookup sort
	// would race once concurrent workers hit it.
	reg.ensureSorted()

	inet := &Internet{
		Registry:     reg,
		ResearchASNs: []uint32{ASNTUM, ASNRWTH},
		ContentASNs:  []uint32{ASNGoogle, ASNFacebook, ASNCloudflare, ASNAkamai, ASNFastly, 22822},
		EyeballASNs:  []uint32{63526, 58717, 45245, 7922, 20115, 7018, 36947, 45899, 4134, 12389, 28573, 9829},
	}
	for _, asn := range inet.ResearchASNs {
		for _, p := range reg.ByASN(asn).Prefixes {
			inet.research = append(inet.research, maskedBase{p.mask(), p.Base})
		}
	}
	return inet
}

// IsResearchSource reports whether an address belongs to one of the
// research scanner networks — the Figure 2 sanitization predicate.
func (in *Internet) IsResearchSource(a Addr) bool {
	for _, p := range in.research {
		if a&p.mask == p.base {
			return true
		}
	}
	return false
}

// RandomHostOf draws a random address from the AS's allocation,
// weighting prefixes by size.
func (in *Internet) RandomHostOf(asn uint32, r *RNG) Addr {
	as := in.Registry.ByASN(asn)
	if as == nil || len(as.Prefixes) == 0 {
		panic("netmodel: no prefixes for ASN")
	}
	return as.Prefixes[as.hosts.Pick(r)].Random(r)
}

// InTelescope reports whether an address falls inside the darknet.
func InTelescope(a Addr) bool { return TelescopePrefix.Contains(a) }

// TelescopeShare is the fraction of IPv4 the telescope observes
// (1/512 for a /9), used to extrapolate attack rates in §5.2.
const TelescopeShare = 1.0 / 512
