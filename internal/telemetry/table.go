package telemetry

import (
	"fmt"
	"reflect"
	"strings"
)

// kind is how a metric folds across shards, which also fixes how it is
// exposed: additive quantities are Prometheus counters, a maximum is a
// gauge, a Hist a histogram and a label an info-style gauge.
type kind uint8

const (
	kindSum   kind = iota // uint64, added (the default)
	kindMax               // uint64 tagged merge:"max", maximum taken
	kindHist              // Hist, merged bucket-wise
	kindLabel             // string, first non-empty value wins
)

// metric is one row of the metric table: a counter-struct field and
// what its tags say about it (see the package comment).
type metric struct {
	// section and name are the json tag names of the Snapshot field and
	// of the field inside it; the Prometheus family is
	// prefix_section_name plus the kind's suffix.
	section, name string
	help          string
	// runtime is the determinism class (class:"runtime" vs
	// class:"stream"): runtime metrics describe how one execution was
	// scheduled and are zeroed by Stream; stream metrics are a property
	// of the packet stream alone and must not vary with the worker count.
	runtime bool
	kind    kind
	// index is the field path from Snapshot (section, then field);
	// owner is the section struct's type.
	index []int
	owner reflect.Type
}

// table lists every metric in Snapshot order.
var table = buildTable()

var histType = reflect.TypeOf(Hist{})

// buildTable walks Snapshot's counter structs once. A field the table
// cannot describe — no help, no class, an unknown merge or a type
// without a merge rule — is a programming error in this package and
// panics at init, so no binary ships a metric that the derived
// surfaces would silently skip.
func buildTable() []metric {
	var t []metric
	st := reflect.TypeOf(Snapshot{})
	for i := 0; i < st.NumField(); i++ {
		sf := st.Field(i)
		if sf.Type.Kind() != reflect.Struct {
			continue // Workers, ShardPackets: run shape, handled by hand
		}
		for j := 0; j < sf.Type.NumField(); j++ {
			f := sf.Type.Field(j)
			m := metric{
				section: jsonName(sf), name: jsonName(f), help: f.Tag.Get("help"),
				runtime: f.Tag.Get("class") == "runtime", index: []int{i, j}, owner: sf.Type,
			}
			switch merge := f.Tag.Get("merge"); {
			case f.Type == histType && merge == "":
				m.kind = kindHist
			case f.Type.Kind() == reflect.String && merge == "":
				m.kind = kindLabel
			case f.Type.Kind() == reflect.Uint64 && merge == "":
				m.kind = kindSum
			case f.Type.Kind() == reflect.Uint64 && merge == "max":
				m.kind = kindMax
			default:
				panic(fmt.Sprintf("telemetry: %s.%s: no merge rule for %s with merge:%q", sf.Name, f.Name, f.Type, merge))
			}
			if class := f.Tag.Get("class"); m.help == "" || (class != "stream" && class != "runtime") {
				panic(fmt.Sprintf("telemetry: %s.%s: needs a help tag and class:\"stream\" or class:\"runtime\"", sf.Name, f.Name))
			}
			t = append(t, m)
		}
	}
	return t
}

func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// merge folds src into dst (both the metric's field, dst settable).
func (m metric) merge(dst, src reflect.Value) {
	switch m.kind {
	case kindSum:
		dst.SetUint(dst.Uint() + src.Uint())
	case kindMax:
		if src.Uint() > dst.Uint() {
			dst.SetUint(src.Uint())
		}
	case kindHist:
		dst.Addr().Interface().(*Hist).Merge(src.Addr().Interface().(*Hist))
	case kindLabel:
		if dst.String() == "" {
			dst.SetString(src.String())
		}
	}
}

// mergeSection folds one counter struct into another of the same type;
// dst and src are pointers (the exported Merge methods' receivers).
func mergeSection(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for _, m := range table {
		if m.owner == d.Type() {
			m.merge(d.Field(m.index[1]), s.Field(m.index[1]))
		}
	}
}
