package correlate

import (
	"math"
	"testing"

	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

func atk(victim uint32, startSec, endSec int64, vec dosdetect.Vector) dosdetect.Attack {
	return dosdetect.Attack{
		Vector: vec,
		Victim: netmodel.Addr(victim),
		Start:  telescope.Timestamp(startSec * 1000),
		End:    telescope.Timestamp(endSec * 1000),
	}
}

func TestClassifyConcurrent(t *testing.T) {
	quic := atk(1, 100, 200, dosdetect.VectorQUIC)
	common := []dosdetect.Attack{atk(1, 150, 300, dosdetect.VectorCommon)}
	r := NewCorrelator(common).Classify(&quic)
	if r.Category != CategoryConcurrent {
		t.Fatalf("category = %v", r.Category)
	}
	if math.Abs(r.OverlapShare-0.5) > 1e-9 {
		t.Errorf("overlap share = %f", r.OverlapShare)
	}
}

func TestClassifyFullOverlap(t *testing.T) {
	quic := atk(1, 100, 200, dosdetect.VectorQUIC)
	common := []dosdetect.Attack{atk(1, 50, 400, dosdetect.VectorCommon)}
	r := NewCorrelator(common).Classify(&quic)
	if r.Category != CategoryConcurrent || r.OverlapShare != 1.0 {
		t.Fatalf("got %v share %f", r.Category, r.OverlapShare)
	}
}

func TestOverlapUnionAcrossMultipleCommonAttacks(t *testing.T) {
	// Two common attacks covering [100,140] and [160,200]: union 80 of 100.
	quic := atk(1, 100, 200, dosdetect.VectorQUIC)
	common := []dosdetect.Attack{
		atk(1, 90, 140, dosdetect.VectorCommon),
		atk(1, 160, 210, dosdetect.VectorCommon),
	}
	r := NewCorrelator(common).Classify(&quic)
	if r.Category != CategoryConcurrent {
		t.Fatalf("category = %v", r.Category)
	}
	if math.Abs(r.OverlapShare-0.8) > 1e-9 {
		t.Errorf("union share = %f, want 0.8", r.OverlapShare)
	}
}

func TestClassifySequentialWithGap(t *testing.T) {
	quic := atk(1, 1000, 1100, dosdetect.VectorQUIC)
	common := []dosdetect.Attack{
		atk(1, 100, 200, dosdetect.VectorCommon),   // gap 800 before
		atk(1, 5000, 6000, dosdetect.VectorCommon), // gap 3900 after
	}
	r := NewCorrelator(common).Classify(&quic)
	if r.Category != CategorySequential {
		t.Fatalf("category = %v", r.Category)
	}
	if r.GapSeconds != 800 {
		t.Errorf("gap = %f, want 800 (nearest)", r.GapSeconds)
	}
}

func TestClassifyQUICOnly(t *testing.T) {
	quic := atk(7, 100, 200, dosdetect.VectorQUIC)
	common := []dosdetect.Attack{atk(8, 100, 200, dosdetect.VectorCommon)}
	r := NewCorrelator(common).Classify(&quic)
	if r.Category != CategoryQUICOnly {
		t.Fatalf("category = %v", r.Category)
	}
}

func TestSubSecondOverlapIsSequential(t *testing.T) {
	// Overlap of 0.5 s < the 1 s criterion ⇒ sequential, not concurrent.
	quic := dosdetect.Attack{Victim: 1, Start: 100_000, End: 200_500}
	common := []dosdetect.Attack{{Victim: 1, Start: 200_000, End: 300_000}}
	r := NewCorrelator(common).Classify(&quic)
	if r.Category != CategorySequential {
		t.Fatalf("category = %v (overlap 0.5s)", r.Category)
	}
	if r.GapSeconds != 0 {
		t.Errorf("touching attacks gap = %f", r.GapSeconds)
	}
}

func TestCorrelateSummaryShares(t *testing.T) {
	quic := []dosdetect.Attack{
		atk(1, 100, 200, dosdetect.VectorQUIC),   // concurrent
		atk(1, 5000, 5100, dosdetect.VectorQUIC), // sequential
		atk(2, 100, 200, dosdetect.VectorQUIC),   // quic-only
		atk(3, 100, 200, dosdetect.VectorQUIC),   // concurrent
	}
	common := []dosdetect.Attack{
		atk(1, 150, 250, dosdetect.VectorCommon),
		atk(3, 50, 500, dosdetect.VectorCommon),
	}
	s := Correlate(quic, common)
	if s.Concurrent != 2 || s.Sequential != 1 || s.QUICOnly != 1 {
		t.Fatalf("summary = %+v", s)
	}
	c, q, o := s.Shares()
	if c != 50 || q != 25 || o != 25 {
		t.Errorf("shares = %f %f %f", c, q, o)
	}
	if n := len(s.OverlapShares()); n != 2 {
		t.Errorf("overlap samples = %d", n)
	}
	if gaps := s.SequentialGaps(); len(gaps) != 1 || gaps[0] != 4750 {
		t.Errorf("gaps = %v", gaps)
	}
}

// TestResultsKeepTheirAttack: a Result holds its attack, so reordering
// the slice Correlate read — Detector.Sorted sorts in place — leaves
// every result naming the attack it classified.
func TestResultsKeepTheirAttack(t *testing.T) {
	quic := []dosdetect.Attack{
		atk(1, 100, 200, dosdetect.VectorQUIC),
		atk(2, 100, 200, dosdetect.VectorQUIC),
	}
	s := Correlate(quic, []dosdetect.Attack{atk(1, 150, 250, dosdetect.VectorCommon)})
	quic[0], quic[1] = quic[1], quic[0]
	for i, want := range []struct {
		victim netmodel.Addr
		cat    Category
	}{{1, CategoryConcurrent}, {2, CategoryQUICOnly}} {
		if r := s.Results[i]; r.Attack.Victim != want.victim || r.Category != want.cat {
			t.Errorf("result %d: %v attack on %v, want %v on %v", i, r.Category, r.Attack.Victim, want.cat, want.victim)
		}
	}
}

func TestEmptySummary(t *testing.T) {
	s := Correlate(nil, nil)
	c, q, o := s.Shares()
	if c != 0 || q != 0 || o != 0 {
		t.Error("empty shares should be zero")
	}
}

func TestTimeline(t *testing.T) {
	quic := []dosdetect.Attack{
		atk(5, 300, 400, dosdetect.VectorQUIC),
		atk(5, 100, 200, dosdetect.VectorQUIC),
		atk(6, 100, 200, dosdetect.VectorQUIC),
	}
	common := []dosdetect.Attack{atk(5, 120, 220, dosdetect.VectorCommon)}
	tl := Timeline(netmodel.Addr(5), quic, common, 0)
	if len(tl) != 3 {
		t.Fatalf("timeline = %d entries", len(tl))
	}
	if tl[0].Start != 100 || tl[1].Start != 120 || tl[2].Start != 300 {
		t.Errorf("order: %+v", tl)
	}
	if tl[1].Vector != dosdetect.VectorCommon {
		t.Errorf("middle vector = %v", tl[1].Vector)
	}
}

func TestBusiestMultiVectorVictim(t *testing.T) {
	quic := []dosdetect.Attack{
		atk(1, 0, 10, dosdetect.VectorQUIC),
		atk(1, 20, 30, dosdetect.VectorQUIC),
		atk(2, 0, 10, dosdetect.VectorQUIC),
		atk(9, 0, 10, dosdetect.VectorQUIC), // victim 9 has no common attacks
	}
	common := []dosdetect.Attack{
		atk(1, 5, 6, dosdetect.VectorCommon),
		atk(2, 5, 6, dosdetect.VectorCommon),
	}
	v, ok := BusiestMultiVectorVictim(quic, common)
	if !ok || v != netmodel.Addr(1) {
		t.Fatalf("victim = %v ok=%v", v, ok)
	}
	if _, ok := BusiestMultiVectorVictim(nil, nil); ok {
		t.Error("empty input should report none")
	}
}

func TestCategoryStrings(t *testing.T) {
	if CategoryConcurrent.String() != "concurrent" || CategorySequential.String() != "sequential" || CategoryQUICOnly.String() != "quic-only" {
		t.Error("category strings")
	}
}
