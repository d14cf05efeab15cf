package metrics

import (
	"math"
	"sort"
)

// Canonical family names. The stronghold_ prefix namespaces the
// exposition for scraping alongside other jobs.
const (
	FamResourceTasks     = "stronghold_resource_tasks_total"
	FamResourceBusyNS    = "stronghold_resource_busy_ns_total"
	FamResourceQueueWait = "stronghold_resource_queue_wait_ns_total"
	FamResourceTaskNS    = "stronghold_resource_task_ns"
	FamProcTasks         = "stronghold_proc_tasks_total"
	FamProcBusyNS        = "stronghold_proc_busy_ns_total"
	FamTransferBytes     = "stronghold_transfer_bytes_total"
	FamTransferNS        = "stronghold_transfer_ns"
	FamWindowLayers      = "stronghold_window_layers"
	FamWindowOccupancy   = "stronghold_window_occupancy_layers"
	FamOptBacklog        = "stronghold_opt_backlog"
	FamOptTasks          = "stronghold_opt_tasks_total"
	FamRetries           = "stronghold_fault_retries_total"
	FamDeadlineMisses    = "stronghold_fault_deadline_misses_total"
	FamWindowResolves    = "stronghold_fault_window_resolves_total"
)

// familyMeta carries the static HELP/TYPE catalog for every family the
// collector can emit.
var familyMeta = map[string]struct {
	kind Kind
	help string
}{
	FamResourceTasks:     {KindCounter, "tasks submitted per FIFO resource"},
	FamResourceBusyNS:    {KindCounter, "accumulated busy virtual-nanoseconds per resource"},
	FamResourceQueueWait: {KindCounter, "accumulated submit-to-start wait per resource"},
	FamResourceTaskNS:    {KindHistogram, "per-task service time (virtual ns) per resource"},
	FamProcTasks:         {KindCounter, "tasks completed per shared processor"},
	FamProcBusyNS:        {KindCounter, "accumulated task span per shared processor"},
	FamTransferBytes:     {KindCounter, "bytes moved per transfer channel"},
	FamTransferNS:        {KindHistogram, "per-transfer occupancy (virtual ns) per channel"},
	FamWindowLayers:      {KindGauge, "working-window size m"},
	FamWindowOccupancy:   {KindGauge, "layers currently holding window buffers"},
	FamOptBacklog:        {KindGauge, "optimizer updates submitted but not finished"},
	FamOptTasks:          {KindCounter, "optimizer updates submitted"},
	FamRetries:           {KindCounter, "transfer reissues after blackout windows"},
	FamDeadlineMisses:    {KindCounter, "transfers past their deadline factor"},
	FamWindowResolves:    {KindCounter, "mid-run adaptive window re-solves"},
}

// Timeline series-name prefixes (the CSV/JSON time-series namespace).
const (
	SeriesBusy      = "busy_frac"   // busy_frac:<resource>  cumulative busy fraction at task end
	SeriesQDepth    = "queue_depth" // queue_depth:<resource> tasks queued-or-running at submit
	SeriesBandwidth = "bw_gbps"     // bw_gbps:<channel>     per-transfer achieved bandwidth
	SeriesWindow    = "window_m"    // working-window size over time
	SeriesOccupancy = "window_occupancy"
	SeriesBacklog   = "opt_backlog"
)

// seriesKey identifies one (family, label) series.
type seriesKey struct {
	family string
	label  string
}

// Collector holds one run's deterministic virtual-time metrics:
// counters, gauges and histograms keyed by family and label, and
// timelines keyed by series name. The simulation fills it after a run,
// from the plan executor's per-op record (core.Engine.Metrics); nothing
// writes to it per simulated event. The zero collector from New is
// ready to use; a nil *Collector must never be installed — the
// convention everywhere is "nil collector field = metrics off".
type Collector struct {
	counters  map[seriesKey]float64
	gauges    map[seriesKey]float64
	hists     map[seriesKey]*Histogram
	timelines map[string]*Timeline
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		counters:  make(map[seriesKey]float64),
		gauges:    make(map[seriesKey]float64),
		hists:     make(map[seriesKey]*Histogram),
		timelines: make(map[string]*Timeline),
	}
}

// Add adds d to a counter series; label is a CanonicalLabel, or "" for
// an unlabeled family. Adding 0 still creates the series.
func (c *Collector) Add(family, label string, d float64) {
	c.counters[seriesKey{family, label}] += d
}

// Set sets a gauge series.
func (c *Collector) Set(family, label string, v float64) {
	c.gauges[seriesKey{family, label}] = v
}

// Histogram returns a histogram series, creating it empty.
func (c *Collector) Histogram(family, label string) *Histogram {
	k := seriesKey{family, label}
	h := c.hists[k]
	if h == nil {
		h = &Histogram{}
		c.hists[k] = h
	}
	return h
}

// Series returns the named timeline, creating it empty. An empty
// timeline still exports, so create one only to append to it.
func (c *Collector) Series(name string) *Timeline {
	tl := c.timelines[name]
	if tl == nil {
		tl = &Timeline{}
		c.timelines[name] = tl
	}
	return tl
}

// Points returns the total number of timeline samples recorded — the
// determinism fingerprint surfaced as perf.IterationResult.
func (c *Collector) Points() uint64 {
	var n uint64
	for _, tl := range c.timelines {
		n += uint64(tl.Len())
	}
	return n
}

// Quantile returns the q-quantile bucket bound of the named histogram
// series (false when the series does not exist). label is the raw
// label value; the family's key is implied (resource=... for
// FamResourceTaskNS, channel=... for FamTransferNS).
func (c *Collector) Quantile(family, labelValue string, q float64) (int64, bool) {
	key := ""
	switch family {
	case FamResourceTaskNS:
		key = CanonicalLabel("resource", labelValue)
	case FamTransferNS:
		key = CanonicalLabel("channel", labelValue)
	}
	h, ok := c.hists[seriesKey{family, key}]
	if !ok {
		return 0, false
	}
	return h.Quantile(q), true
}

// Snapshot renders the collector into its canonical Registry form
// (counters, gauges, histograms; timelines export via JSON/CSV only).
func (c *Collector) Snapshot() *Registry {
	byName := make(map[string]*Family)
	fam := func(name string) *Family {
		f := byName[name]
		if f == nil {
			meta := familyMeta[name]
			f = &Family{Name: name, Help: meta.help, Kind: meta.kind}
			byName[name] = f
		}
		return f
	}
	for _, k := range sortedSeriesKeys(c.counters) {
		fam(k.family).Series = append(fam(k.family).Series, Series{Label: k.label, Value: c.counters[k]})
	}
	for _, k := range sortedSeriesKeys(c.gauges) {
		fam(k.family).Series = append(fam(k.family).Series, Series{Label: k.label, Value: c.gauges[k]})
	}
	histKeys := make([]seriesKey, 0, len(c.hists))
	for k := range c.hists {
		histKeys = append(histKeys, k)
	}
	sortSeriesKeys(histKeys)
	for _, k := range histKeys {
		fam(k.family).Series = append(fam(k.family).Series, Series{Label: k.label, Hist: c.hists[k].Data()})
	}
	reg := &Registry{}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		reg.Families = append(reg.Families, byName[n])
	}
	reg.sort()
	return reg
}

// Data renders the live histogram into its sparse cumulative exported
// form: only buckets whose cumulative count changes are emitted, plus
// the final +Inf bucket.
func (h *Histogram) Data() *HistData {
	d := &HistData{Sum: float64(h.sum), Count: h.count}
	var cum uint64
	for i := 0; i < histBuckets-1; i++ {
		if h.counts[i] == 0 {
			continue
		}
		cum += h.counts[i]
		d.Buckets = append(d.Buckets, Bucket{LE: float64(BucketBound(i)), Cum: cum})
	}
	d.Buckets = append(d.Buckets, Bucket{LE: math.Inf(1), Cum: h.count})
	return d
}

func sortedSeriesKeys(m map[seriesKey]float64) []seriesKey {
	keys := make([]seriesKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortSeriesKeys(keys)
	return keys
}

func sortSeriesKeys(keys []seriesKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].family != keys[j].family {
			return keys[i].family < keys[j].family
		}
		return keys[i].label < keys[j].label
	})
}
