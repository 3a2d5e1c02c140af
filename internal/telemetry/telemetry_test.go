package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestHistBuckets pins the power-of-two bucketing: zero lands in
// bucket 0, each v in [2^(i-1), 2^i) in bucket i, and everything at or
// beyond 2^14 in the last bucket.
func TestHistBuckets(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 13, 14}, {1<<14 - 1, 14}, {1 << 14, 15}, {1 << 40, 15},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.v)
		for i, n := range h.Buckets {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%d): bucket %d = %d, want %d", c.v, i, n, want)
			}
		}
		if h.Count != 1 || h.Sum != c.v {
			t.Errorf("Observe(%d): count=%d sum=%d", c.v, h.Count, h.Sum)
		}
	}
}

func TestHistMergeAndMean(t *testing.T) {
	var a, b Hist
	a.Observe(4)
	a.Observe(8)
	b.Observe(0)
	b.Observe(12)

	var empty Hist
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty Mean = %g, want 0", got)
	}

	a.Merge(&b)
	if a.Count != 4 || a.Sum != 24 {
		t.Fatalf("merged count=%d sum=%d, want 4/24", a.Count, a.Sum)
	}
	if got := a.Mean(); got != 6 {
		t.Errorf("Mean = %g, want 6", got)
	}
}

// fillSnapshot produces a snapshot with every table metric distinct,
// keyed off base, so merge tests notice any dropped or swapped field.
func fillSnapshot(base uint64) *Snapshot {
	s := &Snapshot{Workers: int(base % 7), ShardPackets: []uint64{base, base + 1}}
	v := reflect.ValueOf(s).Elem()
	n := base
	next := func() uint64 { n++; return n }
	for _, m := range table {
		switch f := v.FieldByIndex(m.index); m.kind {
		case kindHist:
			h := f.Addr().Interface().(*Hist)
			for i := range h.Buckets {
				h.Buckets[i] = next()
			}
			h.Count, h.Sum = next(), next()
		case kindLabel:
			f.SetString(fmt.Sprintf("fmt%d", base))
		default:
			f.SetUint(next())
		}
	}
	return s
}

// TestTableCoversSnapshot walks Snapshot without the table builder and
// checks the table against it: every uint64, Hist and string field
// reachable from Snapshot is one row, rows are unique (so Prometheus
// family names are), and each carries help text. Class and merge tags
// are validated when the table is built.
func TestTableCoversSnapshot(t *testing.T) {
	var leaves []string
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case f.Type == histType, f.Type.Kind() == reflect.Uint64, f.Type.Kind() == reflect.String:
				leaves = append(leaves, path+f.Name)
			case f.Type.Kind() == reflect.Struct:
				walk(path+f.Name+".", f.Type)
			}
		}
	}
	st := reflect.TypeOf(Snapshot{})
	walk("", st)

	rows := map[string]int{}
	families := map[string]bool{}
	for _, m := range table {
		sf := st.Field(m.index[0])
		rows[sf.Name+"."+sf.Type.Field(m.index[1]).Name]++
		if m.help == "" || m.section == "" || m.name == "" {
			t.Errorf("row %s.%s incomplete: %+v", m.section, m.name, m)
		}
		if families[m.section+"_"+m.name] {
			t.Errorf("duplicate family %s_%s", m.section, m.name)
		}
		families[m.section+"_"+m.name] = true
	}
	if len(leaves) != len(table) {
		t.Errorf("Snapshot has %d metric fields, table has %d rows", len(leaves), len(table))
	}
	for _, leaf := range leaves {
		if rows[leaf] != 1 {
			t.Errorf("%s appears %d times in the table, want once", leaf, rows[leaf])
		}
	}
}

// TestSnapshotMergeCommutes asserts a⊕b == b⊕a for fully-populated
// snapshots — the property that makes reduce-time merging independent
// of worker completion order — and that each row folded by its kind.
func TestSnapshotMergeCommutes(t *testing.T) {
	a, b := fillSnapshot(100), fillSnapshot(2000)
	ab := fillSnapshot(100)
	ab.Merge(b)
	ba := fillSnapshot(2000)
	ba.Merge(a)

	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	abv, bav := reflect.ValueOf(ab).Elem(), reflect.ValueOf(ba).Elem()
	for _, m := range table {
		x, y, got := av.FieldByIndex(m.index), bv.FieldByIndex(m.index), abv.FieldByIndex(m.index)
		var ok bool
		switch m.kind {
		case kindSum:
			ok = got.Uint() == x.Uint()+y.Uint()
		case kindMax:
			ok = got.Uint() == max(x.Uint(), y.Uint())
		case kindHist:
			want := x.Interface().(Hist)
			want.Merge(y.Addr().Interface().(*Hist))
			ok = got.Interface().(Hist) == want
		case kindLabel:
			// First non-empty wins, the one order-dependent kind (shards
			// of one run agree on labels) — align before comparing.
			ok = got.String() == x.String()
			bav.FieldByIndex(m.index).SetString(got.String())
		}
		if !ok {
			t.Errorf("%s.%s: %v ⊕ %v = %v", m.section, m.name, x, y, got)
		}
	}
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("merge not commutative:\n a⊕b %+v\n b⊕a %+v", ab, ba)
	}

	// The per-section Merge methods are the same rows.
	d := a.Detect
	d.Merge(&b.Detect)
	e := a.Engine
	e.Merge(&b.Engine)
	if d != ab.Detect || e != ab.Engine {
		t.Errorf("section Merge disagrees with Snapshot.Merge:\n %+v vs %+v\n %+v vs %+v", d, ab.Detect, e, ab.Engine)
	}
}

// TestSnapshotMergeRaggedShards covers merging snapshots with different
// shard counts (replay at another worker count): the shorter slice
// grows, Workers takes the max.
func TestSnapshotMergeRaggedShards(t *testing.T) {
	a := &Snapshot{Workers: 2, ShardPackets: []uint64{5, 7}}
	b := &Snapshot{Workers: 4, ShardPackets: []uint64{1, 2, 3, 4}}
	a.Merge(b)
	if a.Workers != 4 {
		t.Errorf("Workers = %d, want 4", a.Workers)
	}
	if want := []uint64{6, 9, 3, 4}; !reflect.DeepEqual(a.ShardPackets, want) {
		t.Errorf("ShardPackets = %v, want %v", a.ShardPackets, want)
	}
}

func TestSkew(t *testing.T) {
	cases := []struct {
		counts []uint64
		want   float64
	}{
		{nil, 0},
		{[]uint64{0, 0}, 0},
		{[]uint64{10, 10}, 1},
		{[]uint64{3, 1}, 1.5},
	}
	for _, c := range cases {
		if got := skew(c.counts); got != c.want {
			t.Errorf("skew(%v) = %g, want %g", c.counts, got, c.want)
		}
	}
}

// TestStreamProjection asserts Stream keeps exactly the stream-class
// metrics and zeroes the runtime ones and the run shape, and pins a few
// of each class by name so a retagged field is a visible diff here.
func TestStreamProjection(t *testing.T) {
	s := fillSnapshot(10)
	st := s.Stream()
	if st.Workers != 0 || st.ShardPackets != nil {
		t.Errorf("run shape survived: workers %d, shards %v", st.Workers, st.ShardPackets)
	}
	sv, stv := reflect.ValueOf(s).Elem(), reflect.ValueOf(&st).Elem()
	for _, m := range table {
		got, orig := stv.FieldByIndex(m.index), sv.FieldByIndex(m.index)
		if m.runtime && !got.IsZero() {
			t.Errorf("runtime metric %s.%s survived projection", m.section, m.name)
		}
		if !m.runtime && !reflect.DeepEqual(got.Interface(), orig.Interface()) {
			t.Errorf("stream metric %s.%s altered by projection", m.section, m.name)
		}
	}
	if st.Dissect.Datagrams != s.Dissect.Datagrams || st.Sessions.Emitted != s.Sessions.Emitted ||
		st.Detect.AlertsOpened != s.Detect.AlertsOpened || st.Ingest.Format != s.Ingest.Format ||
		st.Trace.Written != s.Trace.Written {
		t.Errorf("stream-class metrics lost: %+v", st)
	}
	if st.Dissect.OpenerHits != 0 || st.Sessions.SweepEvicted != 0 || st.Detect.SourcesEvicted != 0 ||
		st.Generate.SlabReuses != 0 || st.Ingest.SpanBytes != 0 || st.Ingest.SpanCopyBytes != 0 || st.Ingest.DecodePath != "" ||
		st.Ingest.BatchFill != (Hist{}) || st.Engine != (Engine{}) {
		t.Errorf("runtime-class metrics kept: %+v", st)
	}
	if s.Dissect.OpenerHits == 0 || s.Workers == 0 {
		t.Error("projection modified its receiver")
	}
}

// TestTextOmitsIdleSections checks the human rendering only prints
// layers that saw traffic.
func TestTextOmitsIdleSections(t *testing.T) {
	s := &Snapshot{Workers: 2}
	s.Dissect.Datagrams = 10
	s.Dissect.Packets = 9
	out := s.Text()
	if !strings.Contains(out, "dissect:") {
		t.Errorf("dissect section missing:\n%s", out)
	}
	for _, absent := range []string{"sessions:", "generate:", "ingest:", "tap:", "trace:"} {
		if strings.Contains(out, absent) {
			t.Errorf("idle section %q rendered:\n%s", absent, out)
		}
	}
}

// TestWritePrometheusDeterministic pins the exposition contract: equal
// snapshots render byte-equal documents, every sample has a TYPE line,
// and histogram buckets are cumulative up to +Inf == count.
func TestWritePrometheusDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		s := fillSnapshot(42)
		// fillSnapshot fabricates internally-inconsistent histograms;
		// rebuild them from real observations so the cumulative-bucket
		// invariant holds.
		s.Engine.TapBatchFill = Hist{}
		s.Ingest.BatchFill = Hist{}
		s.Engine.TapBatchFill.Observe(3)
		s.Engine.TapBatchFill.Observe(512)
		s.WritePrometheus(&b, "quicsand")
		return b.String()
	}
	doc := render()
	if doc != render() {
		t.Fatal("equal snapshots rendered different documents")
	}

	typed := map[string]bool{}
	var lastCum uint64
	for _, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(name, suffix); t != name && typed[t] {
				base = t
			}
		}
		if !typed[base] {
			t.Errorf("sample %q has no preceding # TYPE", line)
		}
		// Cumulative-bucket check for the tap fill histogram.
		if strings.HasPrefix(line, "quicsand_engine_tap_batch_fill_bucket") {
			var v uint64
			fmt.Sscan(fields[1], &v)
			if v < lastCum {
				t.Errorf("bucket not cumulative at %q (prev %d)", line, lastCum)
			}
			lastCum = v
		}
	}
	if !strings.Contains(doc, `quicsand_engine_tap_batch_fill_bucket{le="+Inf"} 2`) {
		t.Errorf("+Inf bucket != count:\n%s", doc)
	}
}

// TestManifestWriteFile round-trips a manifest through disk and JSON.
func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := &Manifest{
		Command:       "quicsand simulate",
		Config:        map[string]any{"seed": 7},
		Workers:       4,
		WallNS:        123456,
		PacketsPerSec: 1e6,
		Stages:        []StageTiming{{Name: "dissect", Items: 10, WallNS: 99}},
		ShardPackets:  []uint64{5, 5},
		ShardSkew:     1.0,
		Telemetry:     fillSnapshot(3),
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("manifest missing trailing newline")
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if got.Command != m.Command || got.Workers != 4 || len(got.Stages) != 1 {
		t.Errorf("round trip mangled manifest: %+v", got)
	}
	if got.Telemetry == nil || got.Telemetry.Dissect.Datagrams != m.Telemetry.Dissect.Datagrams {
		t.Error("telemetry snapshot lost in round trip")
	}
}

// Merge folds o into s. Every table metric merges by its declared kind
// (all commute); ShardPackets merges element-wise (growing as needed)
// and Workers takes the maximum, so partial snapshots combine
// deterministically.
func (s *Snapshot) Merge(o *Snapshot) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	for len(s.ShardPackets) < len(o.ShardPackets) {
		s.ShardPackets = append(s.ShardPackets, 0)
	}
	for i, n := range o.ShardPackets {
		s.ShardPackets[i] += n
	}
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for _, m := range table {
		m.merge(sv.FieldByIndex(m.index), ov.FieldByIndex(m.index))
	}
}
