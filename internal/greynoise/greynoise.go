// Package greynoise is the reactive-vantage-point substitute: a threat
// intelligence store that classifies source IPs the way the paper uses
// the GreyNoise honeypot platform in §5.2 (benign / malicious with
// botnet tags / unknown, plus origin country).
package greynoise

import (
	"sort"

	"quicsand/internal/netmodel"
)

// Verdict is the top-level GreyNoise classification.
type Verdict int

// Verdicts.
const (
	VerdictUnknown Verdict = iota
	VerdictBenign
	VerdictMalicious
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictBenign:
		return "benign"
	case VerdictMalicious:
		return "malicious"
	}
	return "unknown"
}

// Well-known tags the paper reports on QUIC scan sources.
const (
	TagMirai       = "Mirai"
	TagEternalblue = "Eternalblue"
	TagBruteforcer = "SSH Bruteforcer"
)

// Record is one classified source.
type Record struct {
	Addr    netmodel.Addr
	Verdict Verdict
	Tags    []string
	Country string
}

// Store holds classifications, keyed by exact source address.
type Store struct {
	records map[netmodel.Addr]*Record
	reg     *netmodel.Registry
}

// NewStore creates a store backed by the registry for country lookups
// of unlisted sources.
func NewStore(reg *netmodel.Registry) *Store {
	return &Store{records: make(map[netmodel.Addr]*Record), reg: reg}
}

// Add inserts or replaces a record.
func (s *Store) Add(r *Record) {
	if r.Country == "" && s.reg != nil {
		r.Country = s.reg.CountryOf(r.Addr)
	}
	s.records[r.Addr] = r
}

// Tag is a convenience for adding a malicious record with tags.
func (s *Store) Tag(a netmodel.Addr, tags ...string) {
	s.Add(&Record{Addr: a, Verdict: VerdictMalicious, Tags: tags})
}

// Lookup classifies an address. Unlisted addresses return an unknown
// verdict with registry-derived country — GreyNoise's behaviour for
// never-seen sources.
func (s *Store) Lookup(a netmodel.Addr) Record {
	if r, ok := s.records[a]; ok {
		return *r
	}
	country := ""
	if s.reg != nil {
		country = s.reg.CountryOf(a)
	}
	return Record{Addr: a, Verdict: VerdictUnknown, Country: country}
}

// SourceStats summarizes a set of observed sources against the store —
// the §5.2 join ("no benign scanners, 2.3 % known bots, origin
// countries BD 34 %, US 27 %, DZ 8 %").
type SourceStats struct {
	Total        int
	Benign       int
	Malicious    int
	Unknown      int
	TagCounts    map[string]int
	CountryCount map[string]int
}

// Summarize classifies each source.
func (s *Store) Summarize(sources []netmodel.Addr) *SourceStats {
	st := &SourceStats{TagCounts: make(map[string]int), CountryCount: make(map[string]int)}
	for _, a := range sources {
		r := s.Lookup(a)
		st.Total++
		switch r.Verdict {
		case VerdictBenign:
			st.Benign++
		case VerdictMalicious:
			st.Malicious++
		default:
			st.Unknown++
		}
		for _, tag := range r.Tags {
			st.TagCounts[tag]++
		}
		if r.Country != "" {
			st.CountryCount[r.Country]++
		}
	}
	return st
}

// MaliciousShare returns the percentage of sources with a malicious
// verdict.
func (st *SourceStats) MaliciousShare() float64 {
	if st.Total == 0 {
		return 0
	}
	return float64(st.Malicious) / float64(st.Total) * 100
}

// TopCountries returns countries by descending share (percent).
func (st *SourceStats) TopCountries(n int) []struct {
	Country string
	Share   float64
} {
	type cs struct {
		Country string
		Share   float64
	}
	var out []cs
	for c, cnt := range st.CountryCount {
		out = append(out, cs{c, float64(cnt) / float64(st.Total) * 100})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Country < out[j].Country
	})
	if len(out) > n {
		out = out[:n]
	}
	res := make([]struct {
		Country string
		Share   float64
	}, len(out))
	for i, v := range out {
		res[i] = struct {
			Country string
			Share   float64
		}{v.Country, v.Share}
	}
	return res
}
