package telescope

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
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
// cache: a Clone and a decoded copy must count into their own series
// (a copied cache would alias the original's), and after a Merge
// creates or extends series, captures must land in those.
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

	clone := orig.Clone()
	w := ckpt.NewWriter(nil)
	orig.EncodeTo(w)
	decoded := DecodeHourlyCounter(ckpt.NewReader(w.Bytes()), classify)
	if decoded == nil {
		t.Fatal("decode failed")
	}
	for _, c := range []*HourlyCounter{clone, decoded} {
		c.Capture(req(0))
		c.Capture(resp(3))
		if c.Series["req"][0] != 3 || c.Series["resp"][3] != 1 {
			t.Errorf("copy bins: req[0]=%d resp[3]=%d", c.Series["req"][0], c.Series["resp"][3])
		}
	}
	if orig.Series["req"][0] != 2 || orig.Series["resp"] != nil {
		t.Fatalf("original changed through a copy: req[0]=%d resp=%v", orig.Series["req"][0], orig.Series["resp"] != nil)
	}
	// The original keeps counting into its own series afterwards.
	orig.Capture(req(0))
	if orig.Series["req"][0] != 3 || clone.Series["req"][0] != 3 {
		t.Fatalf("after original capture: orig %d clone %d", orig.Series["req"][0], clone.Series["req"][0])
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

func TestStoreRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := []*Packet{
		mkPacket(MeasurementStart, "1.2.3.4", "44.0.0.1", 1234, 443),
		{
			TS: TS(MeasurementStart.Add(time.Second)), Src: netmodel.MustAddr("142.250.0.9"),
			Dst: netmodel.MustAddr("44.1.2.3"), SrcPort: 443, DstPort: 9999,
			Proto: ProtoUDP, Size: 310, Payload: []byte{0xc0, 1, 2, 3, 4, 5},
		},
		{
			TS: TS(MeasurementStart.Add(2 * time.Second)), Src: netmodel.MustAddr("5.6.7.8"),
			Dst: netmodel.MustAddr("44.9.9.9"), Proto: ProtoTCP, Flags: FlagSYN | FlagACK, Size: 40,
		},
	}
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}

	r := NewReader(&buf)
	var got []*Packet
	if err := r.ForEach(func(p *Packet) error { got = append(got, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d packets", len(got))
	}
	for i := range pkts {
		a, b := pkts[i], got[i]
		if a.TS != b.TS || a.Src != b.Src || a.Dst != b.Dst || a.SrcPort != b.SrcPort ||
			a.DstPort != b.DstPort || a.Proto != b.Proto || a.Flags != b.Flags || a.Size != b.Size {
			t.Errorf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
}

func TestStoreRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if _, err := r.Read(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v", err)
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(mkPacket(MeasurementStart, "1.1.1.1", "44.0.0.1", 1, 443)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r2 := NewReader(bytes.NewReader(trunc))
	if _, err := r2.Read(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated err = %v", err)
	}
	// Empty stream yields EOF.
	r3 := NewReader(bytes.NewReader(nil))
	if _, err := r3.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	f := func(ts int64, src, dst uint32, sp, dp uint16, proto uint8, payload []byte) bool {
		if len(payload) > 1500 {
			payload = payload[:1500]
		}
		in := &Packet{
			TS: Timestamp(ts), Src: netmodel.Addr(src), Dst: netmodel.Addr(dst),
			SrcPort: sp, DstPort: dp, Proto: Proto(proto % 3),
			Size: uint16(len(payload)), Payload: payload,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(in); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		return out.TS == in.TS && out.Src == in.Src && out.Dst == in.Dst &&
			out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Proto == in.Proto && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProtoStrings(t *testing.T) {
	if ProtoUDP.String() != "UDP" || ProtoTCP.String() != "TCP" || ProtoICMP.String() != "ICMP" {
		t.Error("proto strings")
	}
}
