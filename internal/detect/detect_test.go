package detect

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// testConfig is a tiny deterministic configuration: 1 s window over
// six 166 ms buckets, RateCount = floor(2×1)+1 = 3, and the one
// fraction detector, CID ratio, parked behind an unreachable evidence
// floor so only the rate state machine moves.
func testConfig() Config {
	return Config{
		Window:      time.Second,
		RatePPS:     2,
		MinCIDRatio: 0.9,
		MinPackets:  1 << 20,
	}
}

func pkt(src netmodel.Addr, ts telescope.Timestamp) *telescope.Packet {
	return &telescope.Packet{TS: ts, Src: src, Size: 100}
}

// TestRateEpisodeLifecycle drives the episode state machine through
// its full contract: open at the threshold crossing, extend on every
// same-source packet (peak tracked), survive an intra-window gap, and
// close at the pre-silence packet once the source goes quiet for
// longer than one window.
func TestRateEpisodeLifecycle(t *testing.T) {
	d := NewShard(testConfig())
	src := netmodel.Addr(0x2c000001)

	// Three packets inside one window cross RateCount=3 at t=200.
	for _, ts := range []telescope.Timestamp{0, 100, 200} {
		d.Observe(pkt(src, ts), nil)
	}
	if d.Metrics.AlertsOpened != 1 {
		t.Fatalf("episodes opened = %d, want 1 (rate crossed at t=200)", d.Metrics.AlertsOpened)
	}
	// Extensions: an intra-window gap (500 ms < window) keeps the
	// episode open however the windowed value wobbles.
	d.Observe(pkt(src, 400), nil)
	d.Observe(pkt(src, 900), nil)
	if got := d.Drain(); got != nil {
		t.Fatalf("episode closed while the source was active: %+v", got)
	}

	// Silence of 1600 ms > window closes at the previous packet (900),
	// and the post-gap window restarts empty (1 < RateCount: no reopen).
	d.Observe(pkt(src, 2500), nil)
	alerts := d.Drain()
	if len(alerts) != 1 {
		t.Fatalf("drained %d alerts, want 1: %+v", len(alerts), alerts)
	}
	want := Alert{Kind: KindRate, Src: src, Start: 200, End: 900, Peak: 5, PeakTS: 900, Packets: 3}
	if alerts[0] != want {
		t.Errorf("alert = %+v, want %+v", alerts[0], want)
	}
	// Nothing else is open: a flush after the close drains nothing.
	d.Flush()
	if got := d.Drain(); got != nil {
		t.Errorf("flush after close produced %+v", got)
	}
}

// TestFlushClosesOpenEpisodes pins the end-of-stream rule: Flush
// closes at the source's last packet, not at flush time.
func TestFlushClosesOpenEpisodes(t *testing.T) {
	d := NewShard(testConfig())
	src := netmodel.Addr(7)
	for _, ts := range []telescope.Timestamp{0, 100, 200, 600} {
		d.Observe(pkt(src, ts), nil)
	}
	d.Flush()
	alerts := d.Drain()
	if len(alerts) != 1 || alerts[0].End != 600 || alerts[0].Start != 200 {
		t.Fatalf("flush alerts = %+v, want one [200, 600] episode", alerts)
	}
	if d.Metrics.AlertsClosed != 1 {
		t.Errorf("AlertsClosed = %d, want 1", d.Metrics.AlertsClosed)
	}
}

// TestMaxSourcesEviction bounds window state: past MaxSources the
// coldest source is evicted with its open episodes closed at its last
// packet — alert evidence is never silently dropped.
func TestMaxSourcesEviction(t *testing.T) {
	d := NewShard(testConfig())
	d.MaxSources = 2
	hot := netmodel.Addr(1)
	for _, ts := range []telescope.Timestamp{0, 10, 20} {
		d.Observe(pkt(hot, ts), nil) // open episode on the soon-coldest
	}
	d.Observe(pkt(netmodel.Addr(2), 100), nil)
	d.Observe(pkt(netmodel.Addr(3), 200), nil) // third source: evict hot
	if n := d.Sources(); n != 2 {
		t.Errorf("tracked sources = %d, want 2 (budget)", n)
	}
	if d.Metrics.SourcesEvicted != 1 {
		t.Errorf("SourcesEvicted = %d, want 1", d.Metrics.SourcesEvicted)
	}
	alerts := d.Drain()
	if len(alerts) != 1 || alerts[0].Src != hot || alerts[0].End != 20 {
		t.Fatalf("eviction alerts = %+v, want the hot source's episode closed at 20", alerts)
	}
}

// TestMergeAlertsCanonical pins the cross-shard merge order: the
// loser-tree merge of canonically sorted per-shard lists is itself in
// canonical (Start, Src, Kind, End) order.
func TestMergeAlertsCanonical(t *testing.T) {
	a := []Alert{
		{Kind: KindRate, Src: 2, Start: 10, End: 20},
		{Kind: KindRate, Src: 1, Start: 30, End: 40},
	}
	b := []Alert{{Kind: KindCIDRatio, Src: 1, Start: 10, End: 15}}
	merged := MergeAlerts(a, b)
	if len(merged) != 3 {
		t.Fatalf("merged %d alerts, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if alertLess(&merged[i], &merged[i-1]) {
			t.Fatalf("merge out of canonical order at %d: %+v", i, merged)
		}
	}
	if merged[0].Src != 1 || merged[1].Src != 2 || merged[2].Src != 1 {
		t.Errorf("merge order = %+v", merged)
	}
}

// TestAlertJSONLines pins the -alerts stream format: human-readable
// kind and dotted source, millisecond timestamps, one object per line.
func TestAlertJSONLines(t *testing.T) {
	var sb strings.Builder
	alerts := []Alert{
		{Kind: KindRate, Src: 0x01020304, Start: 5, End: 9, Peak: 3.5, PeakTS: 7, Packets: 4},
		{Kind: KindCIDRatio, Src: 0x7f000001, Start: 6, End: 8},
	}
	if err := WriteAlerts(&sb, alerts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), sb.String())
	}
	want := `{"kind":"rate","src":"1.2.3.4","start_ms":5,"end_ms":9,"peak":3.5,"peak_ts_ms":7,"packets":4}`
	if lines[0] != want {
		t.Errorf("line 0 = %s, want %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"kind":"cid-ratio"`) || !strings.Contains(lines[1], `"src":"127.0.0.1"`) {
		t.Errorf("line 1 = %s", lines[1])
	}
}

// TestSilentEpisodeDrainsOnShardTraffic: a source that goes quiet has
// its open episode closed, at its last packet, by the first packet of
// any source on the shard more than one window later — not only when
// it speaks again, and not only at Flush.
func TestSilentEpisodeDrainsOnShardTraffic(t *testing.T) {
	d := NewShard(testConfig())
	flood, other := netmodel.Addr(0x2c000001), netmodel.Addr(0x2c000002)
	for _, ts := range []telescope.Timestamp{0, 100, 200, 300} {
		d.Observe(pkt(flood, ts), nil)
	}
	d.Observe(pkt(other, 1300), nil) // exactly one window of silence: still open
	if got := d.Drain(); got != nil {
		t.Fatalf("episode closed after a silence of one window: %+v", got)
	}
	d.Observe(pkt(other, 1301), nil)
	alerts := d.Drain()
	want := Alert{Kind: KindRate, Src: flood, Start: 200, End: 300, Peak: 4, PeakTS: 300, Packets: 2}
	if len(alerts) != 1 || alerts[0] != want {
		t.Fatalf("drained %+v, want [%+v]", alerts, want)
	}
}

// TestSourcesCountsOnlyTheWindow: window state is held only for the
// sources heard within the last window, so spoofed one-packet sources
// cost memory for one window and no longer.
func TestSourcesCountsOnlyTheWindow(t *testing.T) {
	d := NewShard(testConfig())
	for i := 0; i < 100; i++ {
		d.Observe(pkt(netmodel.Addr(i), telescope.Timestamp(i)), nil)
	}
	if n := d.Sources(); n != 100 {
		t.Fatalf("Sources = %d inside the window, want 100", n)
	}
	// At t=1050 the sources last heard before t=50 are more than one
	// window old.
	d.Observe(pkt(netmodel.Addr(1000), 1050), nil)
	if n := d.Sources(); n != 51 {
		t.Errorf("Sources = %d at t=1050, want 51 (sources 50..99 and the new one)", n)
	}
	d.Observe(pkt(netmodel.Addr(1000), 5000), nil)
	if n := d.Sources(); n != 1 {
		t.Errorf("Sources = %d after a long silence, want 1", n)
	}
	// Source 1000 was expired before its second packet: a new state.
	if d.Metrics.SourcesTracked != 102 {
		t.Errorf("SourcesTracked = %d, want 102 window states opened", d.Metrics.SourcesTracked)
	}
}

// TestBudgetEvictionMatchesLinearScan holds the budget to a reference
// that keeps each source's last packet time in a map, expires sources
// silent for more than a window, and finds the victim by scanning every
// source for the smallest (last packet, address). The stream puts many
// sources on each millisecond, so most victims are decided by the tie
// rule, and some sources return before and after their expiry.
func TestBudgetEvictionMatchesLinearScan(t *testing.T) {
	cfg := testConfig()
	cfg.RatePPS = 1 // RateCount 2: returning sources open episodes
	for _, budget := range []int{1, 3, 17} {
		d := NewShard(cfg)
		d.MaxSources = budget
		windowMS := cfg.Window.Milliseconds()
		ref := map[netmodel.Addr]telescope.Timestamp{}
		rng := rand.New(rand.NewSource(int64(budget)))
		var evicted uint64
		for i := 0; i < 20000; i++ {
			ts := telescope.Timestamp(i / 16)
			src := netmodel.Addr(rng.Intn(400))
			for s, last := range ref {
				if int64(ts-last) > windowMS {
					delete(ref, s)
				}
			}
			ref[src] = ts
			if len(ref) > budget {
				victim := src
				for s, last := range ref {
					if last < ref[victim] || (last == ref[victim] && s < victim) {
						victim = s
					}
				}
				delete(ref, victim)
				evicted++
			}
			d.Observe(pkt(src, ts), nil)
			if d.Sources() != len(ref) {
				t.Fatalf("budget %d, packet %d: %d sources held, reference %d", budget, i, d.Sources(), len(ref))
			}
			for s, last := range ref {
				if pos := d.sources.Lookup(s); pos < 0 || d.sources.End(pos) != last {
					t.Fatalf("budget %d, packet %d: reference holds %v@%d, the shard does not", budget, i, s, last)
				}
			}
		}
		if evicted == 0 || d.Metrics.SourcesEvicted != evicted {
			t.Errorf("budget %d: %d evictions, reference %d", budget, d.Metrics.SourcesEvicted, evicted)
		}
	}
}

// TestLoadConfigRejects covers inputs LoadConfig must refuse: the
// removed knobs (the bucket count is fixed, the source budget is the
// run's -mem-budget, and the Initial-fraction detector is gone), and
// packet thresholds a uint32 window count cannot reach, which used to
// wrap to tiny ones.
func TestLoadConfigRejects(t *testing.T) {
	for _, doc := range []string{
		`{"max_sources": 128}`,
		`{"buckets": 6}`,
		`{"min_initial_fraction": 0.9}`,
		`{"rate_pps": 71582789}`, // RateCount 4294967341 at the 60 s window
		`{"min_packets": 4294967297}`,
	} {
		if cfg, err := LoadConfig([]byte(doc)); err == nil {
			t.Errorf("LoadConfig(%s) = %+v, want an error", doc, cfg)
		}
	}
	// The largest counts that fit are accepted.
	for _, doc := range []string{`{"rate_pps": 71582788}`, `{"min_packets": 4294967295}`} {
		if _, err := LoadConfig([]byte(doc)); err != nil {
			t.Errorf("LoadConfig(%s): %v", doc, err)
		}
	}
}

// TestLoadConfigKeepsDefaults: a knob the file omits, or sets to null,
// keeps Default's value; the knobs it sets replace theirs.
func TestLoadConfigKeepsDefaults(t *testing.T) {
	cfg, err := LoadConfig([]byte(`{"window": null, "rate_pps": null, "min_cid_ratio": 0.7}`))
	want := Default()
	want.MinCIDRatio = 0.7
	if err != nil || cfg != want {
		t.Errorf("LoadConfig = %+v, %v; want %+v", cfg, err, want)
	}
}

// TestLoadConfigRejectsRepeatedKeys: a knob given twice, in any
// spelling encoding/json folds onto its field, is an error, never its
// last value; so are documents that are not one object.
func TestLoadConfigRejectsRepeatedKeys(t *testing.T) {
	for _, doc := range []string{
		`{"rate_pps": 5, "RATE_PPS": 100, "rate_pps": 7}`,
		`{"rate_pps": 5, "rate_pps": 7}`,
		`{"min_packets": 5, "Min_Packets": 7}`,
		`{"window": "30s", "WINDOW": "10s"}`,
		`null`,
		`[{"rate_pps": 5}]`,
	} {
		if cfg, err := LoadConfig([]byte(doc)); err == nil {
			t.Errorf("LoadConfig(%s) = %+v, want an error", doc, cfg)
		}
	}
	_, err := LoadConfig([]byte(`{"rate_pps": 5, "RATE_PPS": 100}`))
	if want := `detect: duplicate key "RATE_PPS" (keys match case-insensitively: "rate_pps" came first)`; err == nil || err.Error() != want {
		t.Errorf("got %v, want %q", err, want)
	}
}

// TestResolve pins the order the commands' detector flags apply in:
// Default, then the -detect-config file, then a positive -window, then
// validation — so -window overrides the file's window and a window too
// narrow for the buckets fails whichever set it.
func TestResolve(t *testing.T) {
	if cfg, err := Resolve("", 0); err != nil || *cfg != Default() {
		t.Errorf("Resolve(\"\", 0) = %+v, %v; want Default()", cfg, err)
	}
	path := t.TempDir() + "/detect.json"
	if err := os.WriteFile(path, []byte(`{"window": "30s", "min_packets": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Resolve(path, 0)
	if err != nil || cfg.Window != 30*time.Second || cfg.MinPackets != 7 {
		t.Errorf("Resolve(file, 0) = %+v, %v; want the file's window and min_packets", cfg, err)
	}
	if cfg, err = Resolve(path, 2*time.Minute); err != nil || cfg.Window != 2*time.Minute || cfg.MinPackets != 7 {
		t.Errorf("Resolve(file, 2m) = %+v, %v; want -window over the file's", cfg, err)
	}
	if _, err := Resolve("", 5*time.Millisecond); err == nil || !strings.HasPrefix(err.Error(), "-window: detect: window 5ms too narrow") {
		t.Errorf("Resolve(\"\", 5ms) err = %v, want the bucket-width error under -window", err)
	}
	if _, err := Resolve(path+".missing", 0); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Resolve(missing file) err = %v, want ErrNotExist", err)
	}
	if err := os.WriteFile(path, []byte(`{"buckets": 6}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(path, time.Minute); err == nil || !strings.HasPrefix(err.Error(), "-detect-config: "+path+": detect: ") {
		t.Errorf("Resolve(bad file) err = %v, want it prefixed with the flag and the path", err)
	}
}
