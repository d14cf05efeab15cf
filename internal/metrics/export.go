package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WritePrometheus writes the collector's canonical Prometheus text
// exposition (timelines are not representable there; they export via
// JSON and CSV).
//
//vet:ignore testonly golden-pinned export that no command serves yet
func (c *Collector) WritePrometheus(w io.Writer) error {
	return c.Snapshot().WriteText(w)
}

// jsonHist is the JSON rendering of a histogram series. Bucket bounds
// are formatValue strings because encoding/json cannot represent the
// final +Inf bound as a number.
type jsonHist struct {
	Buckets []jsonBucket `json:"buckets"`
	Sum     float64      `json:"sum"`
	Count   uint64       `json:"count"`
}

type jsonBucket struct {
	LE  string `json:"le"`
	Cum uint64 `json:"cum"`
}

type jsonPoint struct {
	T int64   `json:"t_ns"`
	V float64 `json:"v"`
}

// jsonExport is the full JSON document: every map keys by the canonical
// series name, and encoding/json sorts map keys, so the output is
// deterministic byte-for-byte.
type jsonExport struct {
	Counters  map[string]float64     `json:"counters"`
	Gauges    map[string]float64     `json:"gauges"`
	Hists     map[string]jsonHist    `json:"histograms"`
	Timelines map[string][]jsonPoint `json:"timelines"`
}

// WriteJSON writes every metric — counters, gauges, histograms and
// timelines — as one indented JSON document with deterministic key
// order.
//
//vet:ignore testonly golden-pinned export that no command serves yet
func (c *Collector) WriteJSON(w io.Writer) error {
	doc := jsonExport{
		Counters:  make(map[string]float64, len(c.counters)),
		Gauges:    make(map[string]float64, len(c.gauges)),
		Hists:     make(map[string]jsonHist, len(c.hists)),
		Timelines: make(map[string][]jsonPoint, len(c.timelines)),
	}
	for k, v := range c.counters {
		doc.Counters[seriesName(k.family, k.label)] = v
	}
	for k, v := range c.gauges {
		doc.Gauges[seriesName(k.family, k.label)] = v
	}
	for k, h := range c.hists {
		d := h.Data()
		jh := jsonHist{Sum: d.Sum, Count: d.Count}
		for _, b := range d.Buckets {
			jh.Buckets = append(jh.Buckets, jsonBucket{LE: formatValue(b.LE), Cum: b.Cum})
		}
		doc.Hists[seriesName(k.family, k.label)] = jh
	}
	for name, tl := range c.timelines {
		pts := make([]jsonPoint, 0, tl.Len())
		for _, p := range tl.Points() {
			pts = append(pts, jsonPoint{T: p.T, V: p.V})
		}
		doc.Timelines[name] = pts
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteCSV writes every timeline as rows of `series,t_ns,value`, series
// in sorted order, points in recording order — the form the
// EXPERIMENTS.md timeline figures are cut from.
//
//vet:ignore testonly golden-pinned export that no command serves yet
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "series,t_ns,value\n"); err != nil {
		return err
	}
	names := make([]string, 0, len(c.timelines))
	for name := range c.timelines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range c.timelines[name].Points() {
			if _, err := fmt.Fprintf(w, "%s,%d,%s\n", name, p.T, formatValue(p.V)); err != nil {
				return err
			}
		}
	}
	return nil
}
