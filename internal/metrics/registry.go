package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a metric family.
type Kind int

// Family kinds, mirroring the Prometheus exposition types we emit.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition-format type keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry is the canonical, export-ready snapshot form of a metric
// set: families sorted by name, series sorted by label string. It is
// both what Collector.Snapshot produces and what the tests' exposition
// parser (ParseExposition, parse_test.go) returns, so
// export→parse→export is a fixed point by construction.
type Registry struct {
	Families []*Family
}

// Family is one named metric family.
type Family struct {
	Name   string
	Help   string // optional one-line help text
	Kind   Kind
	Series []Series
}

// Series is one labeled instance of a family. Label is the canonical
// rendered label set ("" for none; otherwise `k1="v1",k2="v2"` with
// keys sorted and values escaped).
type Series struct {
	Label string
	Value float64   // counter/gauge value
	Hist  *HistData // histogram payload (nil for counter/gauge)
}

// HistData is the exported form of a histogram: cumulative buckets in
// ascending upper-bound order, ending at +Inf.
type HistData struct {
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	LE  float64 // upper bound (+Inf for the last)
	Cum uint64  // observations <= LE
}

// formatValue renders a float64 in the canonical shortest round-trip
// form ("+Inf"/"-Inf"/"NaN" for the non-finite values).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue applies the exposition-format label escapes.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// CanonicalLabel renders one key/value pair in canonical form.
func CanonicalLabel(key, value string) string {
	return key + `="` + escapeLabelValue(value) + `"`
}

// Value looks up one counter/gauge series by family name and canonical
// label string ("" for unlabeled). It is the assertion surface for
// server-side counters: tests and clients read a scraped or
// snapshotted Registry without re-parsing exposition text by hand.
//
//vet:ignore testonly the counter assertions of the metrics and serve tests read it
func (r *Registry) Value(family, label string) (float64, bool) {
	for _, f := range r.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Label == label && s.Hist == nil {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// sortRegistry puts families and series into canonical order.
func (r *Registry) sort() {
	sort.Slice(r.Families, func(i, j int) bool { return r.Families[i].Name < r.Families[j].Name })
	for _, f := range r.Families {
		series := f.Series
		sort.Slice(series, func(i, j int) bool { return series[i].Label < series[j].Label })
	}
}

// seriesName renders `name` or `name{label}`.
func seriesName(name, label string) string {
	if label == "" {
		return name
	}
	return name + "{" + label + "}"
}

// bucketSeries renders `name_bucket{label,le="bound"}` with le last, as
// the canonical writer emits it.
func bucketSeries(name, label string, le float64) string {
	pairs := label
	if pairs != "" {
		pairs += ","
	}
	pairs += `le="` + formatValue(le) + `"`
	return name + "_bucket{" + pairs + "}"
}

// WriteText writes the registry in Prometheus text exposition format.
// The output is canonical: families sorted by name (HELP line when
// present, then TYPE, then series sorted by label), shortest
// round-trip float formatting, histogram buckets cumulative and
// ascending with a final +Inf. The tests' ParseExposition inverts it
// exactly.
func (r *Registry) WriteText(w io.Writer) error {
	r.sort()
	for _, f := range r.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			if f.Kind == KindHistogram {
				if err := writeHistSeries(w, f.Name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.Name, s.Label), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistSeries(w io.Writer, name string, s Series) error {
	h := s.Hist
	if h == nil {
		return fmt.Errorf("metrics: histogram series %s has no data", seriesName(name, s.Label))
	}
	for _, b := range h.Buckets {
		if _, err := fmt.Fprintf(w, "%s %d\n", bucketSeries(name, s.Label, b.LE), b.Cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", s.Label), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", s.Label), h.Count)
	return err
}
