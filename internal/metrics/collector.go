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

// resState tracks per-resource derived state for queue-depth and busy
// timelines, plus the rendered label and series names cached at first
// sight of the resource — the observer hooks run once per simulated
// task, and rebuilding `resource="gpu0"` there would allocate a string
// per event (the hotalloc discipline pins this; see HOTPATH.md).
type resState struct {
	pendingEnds []int64 // ends of submitted-but-unfinished tasks, FIFO
	busyNS      int64

	label        string     // CanonicalLabel("resource", name)
	qdepthSeries string     // SeriesQDepth + ":" + name
	busySeries   string     // SeriesBusy + ":" + name
	taskHist     *Histogram // the FamResourceTaskNS series, shared with hists
}

// chanState is resState's analogue for transfer channels.
type chanState struct {
	label    string     // CanonicalLabel("channel", name)
	bwSeries string     // SeriesBandwidth + ":" + name
	hist     *Histogram // the FamTransferNS series, shared with hists
}

// Collector accumulates deterministic virtual-time metrics. It
// implements sim.Observer structurally (its Time parameters are int64
// aliases), plus the explicit hooks the core engine calls on its
// scheduling paths. The zero collector from New is
// ready to use; a nil *Collector must never be installed — the
// convention everywhere is "nil collector field = metrics off".
type Collector struct {
	counters  map[seriesKey]float64
	gauges    map[seriesKey]float64
	hists     map[seriesKey]*Histogram
	timelines map[string]*Timeline
	resources map[string]*resState
	channels  map[string]*chanState
	procs     map[string]string // proc name → cached CanonicalLabel
	backlog   int64
	points    uint64
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		counters:  make(map[seriesKey]float64),
		gauges:    make(map[seriesKey]float64),
		hists:     make(map[seriesKey]*Histogram),
		timelines: make(map[string]*Timeline),
		resources: make(map[string]*resState),
		channels:  make(map[string]*chanState),
		procs:     make(map[string]string),
	}
}

func (c *Collector) add(family, label string, d float64) {
	c.counters[seriesKey{family, label}] += d
}

func (c *Collector) set(family, label string, v float64) {
	c.gauges[seriesKey{family, label}] = v
}

// resource returns (creating and caching on first sight) the
// per-resource state: the rendered label, the derived series names and
// the task-duration histogram. All once-per-resource construction lives
// here so the per-event hooks stay allocation-free; the budgets in
// HOTPATH.md cover exactly this function.
func (c *Collector) resource(name string) *resState {
	rs := c.resources[name]
	if rs == nil {
		rs = &resState{
			label:        CanonicalLabel("resource", name),
			qdepthSeries: SeriesQDepth + ":" + name,
			busySeries:   SeriesBusy + ":" + name,
			taskHist:     &Histogram{},
		}
		c.hists[seriesKey{FamResourceTaskNS, rs.label}] = rs.taskHist
		c.resources[name] = rs
	}
	return rs
}

// channel is resource's analogue for transfer channels.
func (c *Collector) channel(name string) *chanState {
	cs := c.channels[name]
	if cs == nil {
		cs = &chanState{
			label:    CanonicalLabel("channel", name),
			bwSeries: SeriesBandwidth + ":" + name,
			hist:     &Histogram{},
		}
		c.hists[seriesKey{FamTransferNS, cs.label}] = cs.hist
		c.channels[name] = cs
	}
	return cs
}

// procLabel returns the cached rendered label for a shared processor.
func (c *Collector) procLabel(name string) string {
	label, ok := c.procs[name]
	if !ok {
		label = CanonicalLabel("proc", name)
		c.procs[name] = label
	}
	return label
}

func (c *Collector) timeline(series string) *Timeline {
	tl := c.timelines[series]
	if tl == nil {
		tl = &Timeline{}
		c.timelines[series] = tl
	}
	return tl
}

func (c *Collector) sample(series string, t int64, v float64) {
	c.timeline(series).Append(t, v)
	c.points++
}

// ResourceTask implements sim.Observer: one FIFO-resource task with its
// resolved span, reported at submission time.
//
//vet:hotpath
func (c *Collector) ResourceTask(resource string, submit, start, end int64) {
	rs := c.resource(resource)
	c.add(FamResourceTasks, rs.label, 1)
	c.add(FamResourceBusyNS, rs.label, float64(end-start))
	c.add(FamResourceQueueWait, rs.label, float64(start-submit))
	rs.taskHist.Observe(end - start)

	// Queue depth at submit: previously submitted tasks still pending,
	// plus this one. Ends are FIFO-monotone per resource, so draining
	// the prefix <= submit is exact. The drained prefix is compacted in
	// place so the buffer's backing array is reused forever.
	drained := 0
	for _, e := range rs.pendingEnds {
		if e <= submit {
			drained++
		} else {
			break
		}
	}
	if drained > 0 {
		n := copy(rs.pendingEnds, rs.pendingEnds[drained:])
		rs.pendingEnds = rs.pendingEnds[:n]
	}
	rs.pendingEnds = append(rs.pendingEnds, end)
	c.sample(rs.qdepthSeries, submit, float64(len(rs.pendingEnds)))

	rs.busyNS += end - start
	if end > 0 {
		c.sample(rs.busySeries, end, float64(rs.busyNS)/float64(end))
	}
}

// ProcTask implements sim.Observer: one shared-processor task span at
// completion.
//
//vet:hotpath
func (c *Collector) ProcTask(proc string, start, end int64, active int) {
	label := c.procLabel(proc)
	c.add(FamProcTasks, label, 1)
	c.add(FamProcBusyNS, label, float64(end-start))
}

// Transfer is the core engine's byte-accounting hook: it records one
// completed PCIe or NVMe copy of the given size on its channel.
//
//vet:hotpath
func (c *Collector) Transfer(channel string, bytes, start, end int64) {
	cs := c.channel(channel)
	c.add(FamTransferBytes, cs.label, float64(bytes))
	cs.hist.Observe(end - start)
	if end > start {
		gbps := float64(bytes) / float64(end-start) // bytes/ns == GB/s
		c.sample(cs.bwSeries, start, gbps)
	}
}

// SetWindow records the working-window size m at virtual time t — the
// m(t) series the adaptive re-solve moves.
//
//vet:hotpath
func (c *Collector) SetWindow(t int64, m int) {
	c.set(FamWindowLayers, "", float64(m))
	c.sample(SeriesWindow, t, float64(m))
}

// WindowOccupancy records how many layers hold window buffers.
//
//vet:hotpath
func (c *Collector) WindowOccupancy(t int64, layers int) {
	c.set(FamWindowOccupancy, "", float64(layers))
	c.sample(SeriesOccupancy, t, float64(layers))
}

// OptQueued records an optimizer update entering the pool.
//
//vet:hotpath
func (c *Collector) OptQueued(t int64) {
	c.backlog++
	c.add(FamOptTasks, "", 1)
	c.set(FamOptBacklog, "", float64(c.backlog))
	c.sample(SeriesBacklog, t, float64(c.backlog))
}

// OptDone records an optimizer update completing.
//
//vet:hotpath
func (c *Collector) OptDone(t int64) {
	c.backlog--
	c.set(FamOptBacklog, "", float64(c.backlog))
	c.sample(SeriesBacklog, t, float64(c.backlog))
}

// CountRetry counts one degraded-mode transfer reissue.
//
//vet:hotpath
func (c *Collector) CountRetry() { c.add(FamRetries, "", 1) }

// CountDeadlineMiss counts one transfer past its deadline factor.
//
//vet:hotpath
func (c *Collector) CountDeadlineMiss() { c.add(FamDeadlineMisses, "", 1) }

// CountResolve counts one adaptive window re-solve.
//
//vet:hotpath
func (c *Collector) CountResolve() { c.add(FamWindowResolves, "", 1) }

// Points returns the total number of timeline samples recorded — the
// determinism fingerprint surfaced as perf.IterationResult.
func (c *Collector) Points() uint64 { return c.points }

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

// Timeline returns the named series (nil when absent).
func (c *Collector) Timeline(series string) *Timeline { return c.timelines[series] }

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
