package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// collectSynthetic fills one series of every kind, in a fixed order,
// and returns the collector — the shared fixture for export tests.
func collectSynthetic() *Collector {
	c := New()
	h2d := CanonicalLabel("resource", "pcie.h2d")
	c.Add(FamResourceTasks, h2d, 2)
	c.Add(FamResourceBusyNS, h2d, 200)
	c.Add(FamResourceQueueWait, h2d, 60)
	c.Add(FamResourceTasks, CanonicalLabel("resource", "nvme"), 1)
	c.Add(FamProcTasks, CanonicalLabel("proc", "sm"), 1)
	c.Histogram(FamResourceTaskNS, h2d).Observe(100)
	c.Histogram(FamResourceTaskNS, h2d).Observe(100)
	c.Histogram(FamTransferNS, CanonicalLabel("channel", "pcie.h2d")).Observe(100)
	c.Histogram(FamTransferNS, CanonicalLabel("channel", "nvme")).Observe(1000)
	c.Series(SeriesQDepth+":pcie.h2d").Append(0, 1)
	c.Series(SeriesQDepth+":pcie.h2d").Append(50, 2)
	c.Set(FamWindowLayers, "", 12)
	c.Series(SeriesWindow).Append(0, 12)
	c.Series(SeriesBacklog).Append(100, 1)
	c.Add(FamRetries, "", 1)
	return c
}

func TestCollectorCountersAndTimelines(t *testing.T) {
	c := collectSynthetic()
	if c.Points() != 4 {
		t.Fatalf("Points = %d, want the 4 samples appended", c.Points())
	}
	qd := c.Timeline(SeriesQDepth + ":pcie.h2d")
	if qd == nil || qd.Len() != 2 {
		t.Fatalf("queue-depth timeline = %v", qd)
	}
	if pts := qd.Points(); pts[0] != (Point{0, 1}) || pts[1] != (Point{50, 2}) {
		t.Errorf("queue depths = %v, want insertion order", pts)
	}
	if c.Series(SeriesWindow) != c.Timeline(SeriesWindow) {
		t.Error("Series must return the existing timeline")
	}
	if c.Timeline("no-such-series") != nil {
		t.Error("missing timeline should be nil")
	}
	if got, ok := c.Snapshot().Value(FamResourceTasks, `resource="pcie.h2d"`); !ok || got != 2 {
		t.Errorf("resource tasks = %v, %v; want 2, true", got, ok)
	}
	if q, ok := c.Quantile(FamTransferNS, "nvme", 0.5); !ok || q != 1024 {
		t.Errorf("nvme transfer p50 = %d, %v; want 1024, true", q, ok)
	}
	if _, ok := c.Quantile(FamResourceTaskNS, "pcie.h2d", 0.5); !ok {
		t.Error("resource quantile missing")
	}
	if _, ok := c.Quantile(FamTransferNS, "absent", 0.5); ok {
		t.Error("quantile for absent series should report false")
	}
	if _, ok := c.Quantile("unknown_family", "x", 0.5); ok {
		t.Error("quantile for unknown family should report false")
	}
}

func TestSnapshotValidatesAndExports(t *testing.T) {
	c := collectSynthetic()
	reg := c.Snapshot()
	if err := reg.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if err := New().Snapshot().Validate(); err != nil {
		t.Fatalf("empty snapshot invalid: %v", err)
	}
	var prom, js, csv bytes.Buffer
	if err := c.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`stronghold_resource_tasks_total{resource="pcie.h2d"} 2`,
		`stronghold_fault_retries_total 1`,
		`stronghold_transfer_ns_bucket{channel="nvme",le="1024"} 1`,
		"# TYPE stronghold_transfer_ns histogram",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}
	if !strings.Contains(js.String(), `"timelines"`) || !strings.Contains(js.String(), SeriesWindow) {
		t.Error("json export missing timelines")
	}
	if !strings.HasPrefix(csv.String(), "series,t_ns,value\n") {
		t.Error("csv export missing header")
	}
	if !strings.Contains(csv.String(), "window_m,0,12\n") {
		t.Errorf("csv export missing window sample:\n%s", csv.String())
	}
	// The canonical exposition must round-trip through the parser.
	reg2, err := ParseExposition(prom.Bytes())
	if err != nil {
		t.Fatalf("parsing own export: %v", err)
	}
	var again bytes.Buffer
	if err := reg2.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prom.Bytes(), again.Bytes()) {
		t.Error("export→parse→export is not the identity")
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(1)
	h.Observe(100)
	h.Observe(1000)
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q=0 -> %d, want first bound", got)
	}
	if got := h.Quantile(1); got != 1024 {
		t.Errorf("q=1 -> %d, want 1024", got)
	}
	if got := h.Quantile(math.NaN()); got != 1 {
		t.Errorf("q=NaN -> %d, want clamp to 0", got)
	}
	if got := h.Quantile(2); got != 1024 {
		t.Errorf("q=2 -> %d, want clamp to 1", got)
	}
	if h.Count() != 3 || h.Sum() != 1101 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	big := &Histogram{}
	big.Observe(math.MaxInt64)
	if got := big.Quantile(1); got != math.MaxInt64 {
		t.Errorf("overflow observation quantile = %d", got)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		reg  *Registry
	}{
		{"bad-name", &Registry{Families: []*Family{{Name: "1bad", Kind: KindCounter}}}},
		{"dup-family", &Registry{Families: []*Family{{Name: "a", Kind: KindCounter}, {Name: "a", Kind: KindGauge}}}},
		{"multiline-help", &Registry{Families: []*Family{{Name: "a", Help: "x\ny", Kind: KindCounter}}}},
		{"dup-series", &Registry{Families: []*Family{{Name: "a", Kind: KindCounter,
			Series: []Series{{Label: "", Value: 1}, {Label: "", Value: 2}}}}}},
		{"hist-on-counter", &Registry{Families: []*Family{{Name: "a", Kind: KindCounter,
			Series: []Series{{Hist: &HistData{}}}}}}},
		{"hist-no-buckets", &Registry{Families: []*Family{{Name: "a", Kind: KindHistogram,
			Series: []Series{{Hist: &HistData{}}}}}}},
		{"hist-unsorted", &Registry{Families: []*Family{{Name: "a", Kind: KindHistogram,
			Series: []Series{{Hist: &HistData{Buckets: []Bucket{{LE: 2, Cum: 1}, {LE: 1, Cum: 1}, {LE: math.Inf(1), Cum: 1}}, Count: 1}}}}}}},
		{"hist-cum-decreasing", &Registry{Families: []*Family{{Name: "a", Kind: KindHistogram,
			Series: []Series{{Hist: &HistData{Buckets: []Bucket{{LE: 1, Cum: 2}, {LE: math.Inf(1), Cum: 1}}, Count: 1}}}}}}},
		{"hist-no-inf", &Registry{Families: []*Family{{Name: "a", Kind: KindHistogram,
			Series: []Series{{Hist: &HistData{Buckets: []Bucket{{LE: 1, Cum: 1}}, Count: 1}}}}}}},
		{"hist-count-mismatch", &Registry{Families: []*Family{{Name: "a", Kind: KindHistogram,
			Series: []Series{{Hist: &HistData{Buckets: []Bucket{{LE: math.Inf(1), Cum: 1}}, Count: 2}}}}}}},
		{"hist-name-collision", &Registry{Families: []*Family{
			{Name: "a", Kind: KindHistogram, Series: []Series{{Hist: &HistData{Buckets: []Bucket{{LE: math.Inf(1), Cum: 0}}}}}},
			{Name: "a_sum", Kind: KindCounter}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.reg.Validate(); err == nil {
				t.Error("Validate accepted an invalid registry")
			}
		})
	}
}

func TestWriteTextHistogramWithoutData(t *testing.T) {
	reg := &Registry{Families: []*Family{{Name: "a", Kind: KindHistogram, Series: []Series{{Label: ""}}}}}
	if err := reg.WriteText(&bytes.Buffer{}); err == nil {
		t.Error("WriteText accepted a histogram series without data")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"sample-before-type", "a 1\n"},
		{"no-type", "# HELP a text\n"},
		{"bad-type", "# TYPE a summary\n"},
		{"dup-type", "# TYPE a counter\n# TYPE a counter\n"},
		{"help-invalid-name", "# HELP 1a text\n"},
		{"type-invalid-name", "# TYPE 1a counter\n"},
		{"help-after-series", "# TYPE a counter\na 1\n# HELP a text\n"},
		{"conflicting-help", "# HELP a one\n# HELP a two\n# TYPE a counter\na 1\n"},
		{"malformed-sample", "# TYPE a counter\na\n"},
		{"invalid-name", "# TYPE a counter\n1a 1\n"},
		{"invalid-name-braced", "# TYPE a counter\n1a{x=\"1\"} 1\n"},
		{"bad-value", "# TYPE a counter\na zero\n"},
		{"range-value", "# TYPE a counter\na 1e400\n"},
		{"dup-series", "# TYPE a counter\na 1\na 2\n"},
		{"dup-labeled-series", "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n"},
		{"dup-label-key", "# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n"},
		{"bad-label-key", "# TYPE a counter\na{1x=\"1\"} 1\n"},
		{"unquoted-label", "# TYPE a counter\na{x=1} 1\n"},
		{"unterminated-label", "# TYPE a counter\na{x=\"1 1\n"},
		{"dangling-escape", "# TYPE a counter\na{x=\"\\\n"},
		{"unknown-escape", "# TYPE a counter\na{x=\"\\t\"} 1\n"},
		{"malformed-labels", "# TYPE a counter\na{x\"1\"} 1\n"},
		{"labels-no-sep", "# TYPE a counter\na{x=\"1\"y=\"2\"} 1\n"},
		{"empty-braced-value", "# TYPE a counter\na{x=\"1\"} \n"},
		{"hist-plain-sample", "# TYPE h histogram\nh 1\n"},
		{"hist-bucket-no-le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"hist-dup-le", "# TYPE h histogram\nh_bucket{le=\"1\",le=\"2\"} 1\n"},
		{"hist-dup-bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 1\n"},
		{"hist-bad-le", "# TYPE h histogram\nh_bucket{le=\"x\"} 1\n"},
		{"hist-bad-cum", "# TYPE h histogram\nh_bucket{le=\"1\"} -1\n"},
		{"hist-dup-sum", "# TYPE h histogram\nh_sum 1\nh_sum 2\n"},
		{"hist-dup-count", "# TYPE h histogram\nh_count 1\nh_count 2\n"},
		{"hist-bad-count", "# TYPE h histogram\nh_count 1.5\n"},
		{"hist-incomplete", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n"},
		{"hist-missing-inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseExposition([]byte(tc.input)); err == nil {
				t.Errorf("accepted invalid input %q", tc.input)
			}
		})
	}
}

func TestParseNonCanonicalAccepted(t *testing.T) {
	// Unsorted labels and series, redundant float spellings, CRLF line
	// endings, ignored comments — all accepted and canonicalized.
	input := "# a free comment\r\n" +
		"#bare\n" +
		"# TYPE z gauge\n" +
		"z{b=\"2\",a=\"1\"} 00.50\n" +
		"# TYPE a counter\n" +
		"a 1e2\n"
	reg, err := ParseExposition([]byte(input))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a counter\na 100\n# TYPE z gauge\nz{a=\"1\",b=\"2\"} 0.5\n"
	if out.String() != want {
		t.Errorf("canonicalized export:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestFormatValueSpecials(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {math.NaN(), "NaN"},
		{0.5, "0.5"}, {1e21, "1e+21"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabelValue = %q", got)
	}
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" ||
		KindHistogram.String() != "histogram" || Kind(9).String() != "unknown" {
		t.Error("Kind.String mismatch")
	}
}
