package telescope

import (
	"testing"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
)

func mkPacket(ts time.Time, src, dst string, sport, dport uint16) *Packet {
	return &Packet{
		TS:      TS(ts),
		Src:     netmodel.MustAddr(src),
		Dst:     netmodel.MustAddr(dst),
		SrcPort: sport,
		DstPort: dport,
		Proto:   ProtoUDP,
		Size:    1200,
	}
}

func TestClassification(t *testing.T) {
	ts := MeasurementStart.Add(time.Hour)
	req := mkPacket(ts, "1.2.3.4", "44.0.0.1", 5555, 443)
	resp := mkPacket(ts, "142.250.1.1", "44.0.0.2", 443, 6666)
	both := mkPacket(ts, "1.2.3.4", "44.0.0.1", 443, 443)
	neither := mkPacket(ts, "1.2.3.4", "44.0.0.1", 53, 53)

	if !req.IsRequest() || req.IsResponse() {
		t.Error("request misclassified")
	}
	if !resp.IsResponse() || resp.IsRequest() {
		t.Error("response misclassified")
	}
	// Source AND destination 443: the paper's disjointness observation
	// treats these as neither set.
	if both.IsRequest() || both.IsResponse() || both.IsQUICCandidate() {
		t.Error("443→443 should be in neither set")
	}
	if neither.IsQUICCandidate() {
		t.Error("non-443 classified as QUIC")
	}
	tcp := mkPacket(ts, "1.2.3.4", "44.0.0.1", 9999, 443)
	tcp.Proto = ProtoTCP
	if tcp.IsQUICCandidate() {
		t.Error("TCP/443 classified as QUIC")
	}
}

func TestTimestampHelpers(t *testing.T) {
	ts := TS(MeasurementStart.Add(90 * time.Minute))
	if ts.Hour() != 1 {
		t.Errorf("Hour = %d", ts.Hour())
	}
	if !ts.Time().Equal(MeasurementStart.Add(90 * time.Minute)) {
		t.Errorf("round trip = %v", ts.Time())
	}
	if TS(MeasurementStart).Seconds() >= TS(MeasurementStart.Add(time.Second)).Seconds() {
		t.Error("Seconds not monotone")
	}
	if HoursInMeasurement != 720 {
		t.Errorf("HoursInMeasurement = %d", HoursInMeasurement)
	}
	// Hour floors: time before the start is a negative hour, not bin 0.
	for _, tc := range []struct {
		off  time.Duration
		want int
	}{
		{0, 0}, {time.Hour - time.Millisecond, 0}, {time.Hour, 1},
		{-time.Millisecond, -1}, {-time.Hour, -1}, {-time.Hour - time.Millisecond, -2},
		{MeasurementEnd.Sub(MeasurementStart) - time.Millisecond, HoursInMeasurement - 1},
		{MeasurementEnd.Sub(MeasurementStart), HoursInMeasurement},
	} {
		if got := TS(MeasurementStart.Add(tc.off)).Hour(); got != tc.want {
			t.Errorf("Hour(start%+v) = %d, want %d", tc.off, got, tc.want)
		}
	}
}

// TestHourlyCounterWindowEdges pins both ends of the Figure 2/3 window:
// a packet 1 ms before MeasurementStart (foreign pcaps and the live
// daemon can deliver one) and one at MeasurementEnd are dropped, one at
// MeasurementStart opens bin 0.
func TestHourlyCounterWindowEdges(t *testing.T) {
	hc := NewHourlyCounter(func(*Packet) string { return "x" })
	hc.Capture(mkPacket(MeasurementStart.Add(-time.Millisecond), "1.1.1.1", "44.0.0.1", 999, 443))
	hc.Capture(mkPacket(MeasurementStart.Add(-59*time.Minute), "1.1.1.1", "44.0.0.1", 999, 443))
	hc.Capture(mkPacket(MeasurementEnd, "1.1.1.1", "44.0.0.1", 999, 443))
	if n := hc.TotalOf("x"); n != 0 {
		t.Fatalf("out-of-window packets binned: total %d, bin 0 = %d", n, hc.Series["x"][0])
	}
	hc.Capture(mkPacket(MeasurementStart, "1.1.1.1", "44.0.0.1", 999, 443))
	hc.Capture(mkPacket(MeasurementEnd.Add(-time.Millisecond), "1.1.1.1", "44.0.0.1", 999, 443))
	if s := hc.Series["x"]; s[0] != 1 || s[HoursInMeasurement-1] != 1 || hc.TotalOf("x") != 2 {
		t.Fatalf("bins: first %d last %d total %d", s[0], s[HoursInMeasurement-1], hc.TotalOf("x"))
	}
}

func TestTelescopeFiltersAndCounts(t *testing.T) {
	tel := New()

	inside := mkPacket(MeasurementStart, "1.1.1.1", "44.5.5.5", 1000, 443)
	outside := mkPacket(MeasurementStart, "1.1.1.1", "45.5.5.5", 1000, 443)
	tcp := mkPacket(MeasurementStart.Add(time.Minute), "2.2.2.2", "44.9.9.9", 80, 12345)
	tcp.Proto = ProtoTCP

	if !tel.Offer(inside) || tel.Offer(outside) || !tel.Offer(tcp) {
		t.Fatal("Offer admitted the wrong packets: want inside and tcp, not outside")
	}
	if tel.Total != 2 || tel.UDP443 != 1 || tel.TCPICMP != 1 {
		t.Errorf("counters: total=%d udp=%d tcpicmp=%d", tel.Total, tel.UDP443, tel.TCPICMP)
	}
	if tel.FirstSeen != inside.TS || tel.LastSeen != tcp.TS {
		t.Error("first/last seen wrong")
	}
}

func TestHourlyCounter(t *testing.T) {
	hc := NewHourlyCounter(func(p *Packet) string {
		if p.IsRequest() {
			return "req"
		}
		if p.IsResponse() {
			return "resp"
		}
		return ""
	})
	for i := 0; i < 5; i++ {
		hc.Capture(mkPacket(MeasurementStart.Add(time.Duration(i)*15*time.Minute), "1.1.1.1", "44.0.0.1", 999, 443))
	}
	hc.Capture(mkPacket(MeasurementStart.Add(26*time.Hour), "142.250.0.1", "44.0.0.2", 443, 999))
	// Out-of-window packet is dropped from bins.
	hc.Capture(mkPacket(MeasurementEnd.Add(time.Hour), "1.1.1.1", "44.0.0.1", 999, 443))

	if hc.TotalOf("req") != 5 {
		t.Errorf("req total = %d", hc.TotalOf("req"))
	}
	if hc.Series["req"][0] != 4 || hc.Series["req"][1] != 1 {
		t.Errorf("req bins = %v", hc.Series["req"][:2])
	}
	if hc.Series["resp"][26] != 1 {
		t.Errorf("resp bin 26 = %d", hc.Series["resp"][26])
	}
}

// TestHourlyCounterCopiesAreIndependent guards the label → series
// cache: a decoded copy must count into its own series (a copied cache
// would alias the original's), and after a Merge creates or extends
// series, captures must land in those.
func TestHourlyCounterCopiesAreIndependent(t *testing.T) {
	classify := func(p *Packet) string {
		if p.IsRequest() {
			return "req"
		}
		return "resp"
	}
	req := func(hour int) *Packet {
		return mkPacket(MeasurementStart.Add(time.Duration(hour)*time.Hour), "1.1.1.1", "44.0.0.1", 999, 443)
	}
	resp := func(hour int) *Packet {
		return mkPacket(MeasurementStart.Add(time.Duration(hour)*time.Hour), "142.250.0.1", "44.0.0.2", 443, 999)
	}

	orig := NewHourlyCounter(classify)
	orig.Capture(req(0)) // cache warm on "req"
	orig.Capture(req(0))

	w := ckpt.NewWriter(nil)
	orig.EncodeTo(w)
	decoded := DecodeHourlyCounter(ckpt.NewReader(w.Bytes()), classify)
	if decoded == nil {
		t.Fatal("decode failed")
	}
	decoded.Capture(req(0))
	decoded.Capture(resp(3))
	if decoded.Series["req"][0] != 3 || decoded.Series["resp"][3] != 1 {
		t.Errorf("copy bins: req[0]=%d resp[3]=%d", decoded.Series["req"][0], decoded.Series["resp"][3])
	}
	if orig.Series["req"][0] != 2 || orig.Series["resp"] != nil {
		t.Fatalf("original changed through a copy: req[0]=%d resp=%v", orig.Series["req"][0], orig.Series["resp"] != nil)
	}
	// The original keeps counting into its own series afterwards.
	orig.Capture(req(0))
	if orig.Series["req"][0] != 3 || decoded.Series["req"][0] != 3 {
		t.Fatalf("after original capture: orig %d copy %d", orig.Series["req"][0], decoded.Series["req"][0])
	}

	// Merge brings a label the target has never seen and adds to one it
	// has cached; later captures must hit the merged series.
	other := NewHourlyCounter(classify)
	other.Capture(resp(5))
	other.Capture(req(0))
	orig.Merge(other)
	orig.Capture(resp(5))
	orig.Capture(req(0))
	if orig.Series["resp"][5] != 2 || orig.Series["req"][0] != 5 {
		t.Fatalf("after merge: resp[5]=%d req[0]=%d", orig.Series["resp"][5], orig.Series["req"][0])
	}
	if other.Series["resp"][5] != 1 || other.Series["req"][0] != 1 {
		t.Fatalf("merge source changed: resp[5]=%d req[0]=%d", other.Series["resp"][5], other.Series["req"][0])
	}
	if orig.TotalOf("req") != 5 || orig.TotalOf("resp") != 2 {
		t.Fatalf("totals: req %d resp %d", orig.TotalOf("req"), orig.TotalOf("resp"))
	}
}

func TestHourlyCounterWeight(t *testing.T) {
	hc := NewHourlyCounter(func(*Packet) string { return "x" })
	p := mkPacket(MeasurementStart, "1.1.1.1", "44.0.0.1", 999, 443)
	p.Weight = 64
	hc.Capture(p)
	hc.Capture(mkPacket(MeasurementStart, "1.1.1.1", "44.0.0.1", 999, 443))
	if hc.TotalOf("x") != 65 {
		t.Errorf("weighted total = %d", hc.TotalOf("x"))
	}
	if p.EffectiveWeight() != 64 || (&Packet{}).EffectiveWeight() != 1 {
		t.Error("EffectiveWeight")
	}
}

func TestProtoStrings(t *testing.T) {
	if ProtoUDP.String() != "UDP" || ProtoTCP.String() != "TCP" || ProtoICMP.String() != "ICMP" {
		t.Error("proto strings")
	}
}

// Time converts back to time.Time (UTC).
func (ts Timestamp) Time() time.Time { return time.UnixMilli(int64(ts)).UTC() }

// Seconds returns the timestamp in (fractional) seconds.
func (ts Timestamp) Seconds() float64 { return float64(ts) / 1000 }
