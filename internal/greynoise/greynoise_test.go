package greynoise

import (
	"testing"

	"quicsand/internal/netmodel"
)

func TestStoreLookup(t *testing.T) {
	in := netmodel.BuildInternet()
	s := NewStore(in.Registry)

	bot := in.RandomHostOf(63526, netmodel.NewRNG(1)) // GrameenLink, BD
	s.Tag(bot, TagMirai)

	r := s.Lookup(bot)
	if r.Verdict != VerdictMalicious || len(r.Tags) != 1 || r.Tags[0] != TagMirai {
		t.Fatalf("record = %+v", r)
	}
	if r.Country != "BD" {
		t.Errorf("country = %q (registry backfill)", r.Country)
	}

	unknown := netmodel.MustAddr("73.10.0.9") // Comcast space, unlisted
	u := s.Lookup(unknown)
	if u.Verdict != VerdictUnknown || u.Country != "US" {
		t.Errorf("unlisted = %+v", u)
	}
	if len(s.records) != 1 {
		t.Errorf("len = %d", len(s.records))
	}
}

func TestSummarize(t *testing.T) {
	in := netmodel.BuildInternet()
	s := NewStore(in.Registry)
	rng := netmodel.NewRNG(7)

	var sources []netmodel.Addr
	// 40 BD, 30 US, 10 DZ sources; 2 tagged Mirai, 1 Eternalblue.
	for i := 0; i < 40; i++ {
		sources = append(sources, in.RandomHostOf(63526, rng))
	}
	for i := 0; i < 30; i++ {
		sources = append(sources, in.RandomHostOf(7922, rng))
	}
	for i := 0; i < 10; i++ {
		sources = append(sources, in.RandomHostOf(36947, rng))
	}
	s.Tag(sources[0], TagMirai)
	s.Tag(sources[1], TagMirai, TagBruteforcer)
	s.Tag(sources[40], TagEternalblue)

	st := s.Summarize(sources)
	if st.Total != 80 || st.Malicious != 3 || st.Benign != 0 || st.Unknown != 77 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TagCounts[TagMirai] != 2 || st.TagCounts[TagEternalblue] != 1 || st.TagCounts[TagBruteforcer] != 1 {
		t.Errorf("tags = %v", st.TagCounts)
	}
	if share := st.MaliciousShare(); share < 3.7 || share > 3.8 {
		t.Errorf("malicious share = %f", share)
	}
	top := st.TopCountries(2)
	if len(top) != 2 || top[0].Country != "BD" || top[1].Country != "US" {
		t.Errorf("top countries = %+v", top)
	}
	if top[0].Share != 50 {
		t.Errorf("BD share = %f", top[0].Share)
	}
}

func TestEmptyStats(t *testing.T) {
	s := NewStore(nil)
	st := s.Summarize(nil)
	if st.MaliciousShare() != 0 || len(st.TopCountries(3)) != 0 {
		t.Error("empty stats should be zero")
	}
	r := s.Lookup(netmodel.Addr(5))
	if r.Verdict != VerdictUnknown || r.Country != "" {
		t.Errorf("nil-registry lookup = %+v", r)
	}
}

func TestVerdictStrings(t *testing.T) {
	if VerdictBenign.String() != "benign" || VerdictMalicious.String() != "malicious" || VerdictUnknown.String() != "unknown" {
		t.Error("verdict strings")
	}
}
