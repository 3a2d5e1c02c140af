package activescan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/wire"
)

func TestBuildCensus(t *testing.T) {
	in := netmodel.BuildInternet()
	c := Build(in, netmodel.NewRNG(42), Config{ServersPerOrg: 100})

	if len(c.Servers) != 100*len(in.ContentASNs) {
		t.Fatalf("census size = %d", len(c.Servers))
	}

	// Versions per operator match the paper's deployment observations.
	for _, s := range c.ByOrg("Google") {
		if s.Version != wire.VersionDraft29 {
			t.Fatalf("google version = %v", s.Version)
		}
	}
	for _, s := range c.ByOrg("Facebook") {
		if s.Version != wire.VersionMVFST27 {
			t.Fatalf("facebook version = %v", s.Version)
		}
	}

	// Every server lives inside its operator's allocation.
	for _, s := range c.Servers[:50] {
		as := in.Registry.Lookup(s.Addr)
		if as == nil || as.ASN != s.ASN {
			t.Fatalf("server %v not in AS%d", s.Addr, s.ASN)
		}
	}
}

func TestCensusLookups(t *testing.T) {
	in := netmodel.BuildInternet()
	c := Build(in, netmodel.NewRNG(1), Config{ServersPerOrg: 50})

	known := c.Servers[0].Addr
	if !c.IsKnown(known) {
		t.Error("census member not known")
	}
	if c.Lookup(known) == nil || c.Lookup(known).Org == "" {
		t.Error("lookup failed")
	}
	if c.OrgOf(known) != c.Servers[0].Org {
		t.Error("OrgOf mismatch")
	}
	dark := netmodel.MustAddr("44.1.2.3")
	if c.IsKnown(dark) || c.Lookup(dark) != nil || c.OrgOf(dark) != "" {
		t.Error("dark address should be unknown")
	}
}

func TestKnownShare(t *testing.T) {
	in := netmodel.BuildInternet()
	c := Build(in, netmodel.NewRNG(9), Config{ServersPerOrg: 50})
	victims := []netmodel.Addr{
		c.Servers[0].Addr, c.Servers[1].Addr, c.Servers[2].Addr,
		netmodel.MustAddr("8.8.8.8"), // not in census
	}
	if share := c.KnownShare(victims); share != 75 {
		t.Errorf("share = %f", share)
	}
	if c.KnownShare(nil) != 0 {
		t.Error("empty share")
	}
}

func TestCensusDeterminism(t *testing.T) {
	in := netmodel.BuildInternet()
	a := Build(in, netmodel.NewRNG(5), Config{ServersPerOrg: 20})
	b := Build(in, netmodel.NewRNG(5), Config{ServersPerOrg: 20})
	if len(a.Servers) != len(b.Servers) {
		t.Fatal("sizes differ")
	}
	for i := range a.Servers {
		if a.Servers[i] != b.Servers[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	in := netmodel.BuildInternet()
	c := Build(in, netmodel.NewRNG(2), Config{})
	if len(c.Servers) != 2048*len(in.ContentASNs) {
		t.Errorf("default census size = %d", len(c.Servers))
	}
}

// TestCensusIndexesOneArray pins the census to one array of its final
// size: every lookup leads into Servers itself, not into an array an
// append outgrew (which would keep that array live beside it).
func TestCensusIndexesOneArray(t *testing.T) {
	in := netmodel.BuildInternet()
	c := Build(in, netmodel.NewRNG(7).Fork("census"), Config{})
	if cap(c.Servers) != len(c.Servers) {
		t.Errorf("cap(Servers) = %d, len = %d", cap(c.Servers), len(c.Servers))
	}
	for i := range c.Servers {
		if got := c.Lookup(c.Servers[i].Addr); got != &c.Servers[i] {
			t.Fatalf("Lookup(Servers[%d].Addr) = %p, want %p", i, got, &c.Servers[i])
		}
	}
}

// TestCensusBuildAllocs bounds Build to a fixed handful of allocations:
// the array, the pre-sized index and the RNG fork, with no growth.
func TestCensusBuildAllocs(t *testing.T) {
	in := netmodel.BuildInternet()
	avg := testing.AllocsPerRun(10, func() { Build(in, netmodel.NewRNG(7), Config{}) })
	t.Logf("Build: %.0f allocations", avg)
	if avg > 40 {
		t.Errorf("Build allocates %.0f objects, want <= 40", avg)
	}
}

// TestCensusDrawsUnchanged holds the census to the entries the
// per-operator-set build drew: a SHA-256 over (Addr, ASN, Org, Version)
// of every entry, in order, at the seed path the pipeline uses.
func TestCensusDrawsUnchanged(t *testing.T) {
	want := map[uint64]string{
		1:    "d9632d4fd6acd64e78634a647e4a45382d56e3f77abdd6901c38ed2d18c4e22e",
		7:    "f73e5682f0f69ee597caecbb77ffacf1f2dae4cd79f43224ab41fb88832fec18",
		2021: "778f3a7bf3228d204d42489951d965e39c3cd650e64ca2e49b3dd7b987f175c7",
	}
	in := netmodel.BuildInternet()
	for seed, digest := range want {
		c := Build(in, netmodel.NewRNG(seed).Fork("census"), Config{})
		h := sha256.New()
		var b [4]byte
		for _, s := range c.Servers {
			binary.BigEndian.PutUint32(b[:], uint32(s.Addr))
			h.Write(b[:])
			binary.BigEndian.PutUint32(b[:], s.ASN)
			h.Write(b[:])
			h.Write([]byte(s.Org))
			h.Write([]byte{0})
			binary.BigEndian.PutUint32(b[:], uint32(s.Version))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("seed %d: census digest %s, want %s", seed, got, digest)
		}
	}
}
