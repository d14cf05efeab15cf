package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseExposition parses Prometheus text exposition format (the subset
// WriteText emits: counter, gauge and histogram families with optional
// HELP lines) into a Registry. Input need not be canonical — series may
// be unsorted, floats in any parseable spelling — but it must be
// structurally valid: TYPE before series, histograms complete
// (ascending cumulative buckets, +Inf, matching _sum/_count), no
// duplicates. The returned registry re-exports canonically, so
// parse∘export is the identity on WriteText output and export∘parse is
// idempotent on anything this function accepts — the FuzzExposition
// fixed point. Only tests parse exposition text, so the parser and
// Registry.Validate live in this test file; the external metrics_test
// package sees them too.
func ParseExposition(data []byte) (*Registry, error) {
	p := &expoParser{
		families: make(map[string]*Family),
		typed:    make(map[string]bool),
		hists:    make(map[string]map[string]*histBuild),
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", i+1, err)
		}
	}
	return p.finish()
}

// histBuild accumulates one histogram series' parts until finish.
type histBuild struct {
	buckets  []Bucket
	sum      float64
	count    uint64
	hasSum   bool
	hasCount bool
}

type expoParser struct {
	families map[string]*Family
	typed    map[string]bool // families whose TYPE line has been seen
	order    []string        // family declaration order (canonicalized later)
	// hists[family][label] accumulates histogram parts.
	hists map[string]map[string]*histBuild
}

func (p *expoParser) line(line string) error {
	if strings.HasPrefix(line, "#") {
		return p.comment(line)
	}
	return p.sample(line)
}

// comment handles `# HELP name text` and `# TYPE name kind`; other
// comments are ignored (and therefore dropped from the canonical
// re-export, which keeps the fixed point).
func (p *expoParser) comment(line string) error {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return nil // bare or malformed comment: ignore
	}
	keyword, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return nil
	}
	name, text, _ := strings.Cut(rest, " ")
	switch keyword {
	case "HELP":
		if !validMetricName(name) {
			return fmt.Errorf("HELP for invalid name %q", name)
		}
		f := p.family(name)
		if f.Help != "" && f.Help != text {
			return fmt.Errorf("conflicting HELP for %q", name)
		}
		if p.started(name) {
			return fmt.Errorf("HELP for %q after its series", name)
		}
		f.Help = text
	case "TYPE":
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid name %q", name)
		}
		var kind Kind
		switch text {
		case "counter":
			kind = KindCounter
		case "gauge":
			kind = KindGauge
		case "histogram":
			kind = KindHistogram
		default:
			return fmt.Errorf("unsupported type %q for %q", text, name)
		}
		f := p.family(name)
		if p.typed[name] {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		f.Kind = kind
		p.typed[name] = true
	}
	return nil
}

// family returns (creating on first use) the named family record.
func (p *expoParser) family(name string) *Family {
	if f, ok := p.families[name]; ok {
		return f
	}
	f := &Family{Name: name}
	p.families[name] = f
	p.order = append(p.order, name)
	return f
}

// started reports whether any series of the family has been seen.
func (p *expoParser) started(name string) bool {
	if byLabel, ok := p.hists[name]; ok && len(byLabel) > 0 {
		return true
	}
	f, ok := p.families[name]
	return ok && len(f.Series) > 0
}

// sample parses one series line: name[{labels}] value.
func (p *expoParser) sample(line string) error {
	name, labels, value, err := splitSample(line)
	if err != nil {
		return err
	}
	// Histogram component lines route to their base family.
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := p.families[base]; ok && p.typed[base] && f.Kind == KindHistogram {
			return p.histSample(f, suffix, labels, value)
		}
	}
	f, ok := p.families[name]
	if !ok || !p.typed[name] {
		return fmt.Errorf("series %q before its TYPE", name)
	}
	if f.Kind == KindHistogram {
		return fmt.Errorf("histogram %q sampled without _bucket/_sum/_count", name)
	}
	label, err := canonicalizePairs(labels)
	if err != nil {
		return err
	}
	v, err := parseValue(value)
	if err != nil {
		return err
	}
	for _, s := range f.Series {
		if s.Label == label {
			return fmt.Errorf("duplicate series %s", seriesName(name, label))
		}
	}
	f.Series = append(f.Series, Series{Label: label, Value: v})
	return nil
}

// histSample folds one _bucket/_sum/_count line into its series build.
func (p *expoParser) histSample(f *Family, suffix string, labels []labelPair, value string) error {
	var le float64
	hasLE := false
	rest := labels[:0]
	for _, pr := range labels {
		if pr.key == "le" && suffix == "_bucket" {
			if hasLE {
				return fmt.Errorf("histogram %q bucket with duplicate le", f.Name)
			}
			v, err := parseValue(pr.value)
			if err != nil {
				return fmt.Errorf("histogram %q bucket le: %w", f.Name, err)
			}
			le, hasLE = v, true
			continue
		}
		rest = append(rest, pr)
	}
	if suffix == "_bucket" && !hasLE {
		return fmt.Errorf("histogram %q bucket without le", f.Name)
	}
	label, err := canonicalizePairs(rest)
	if err != nil {
		return err
	}
	byLabel := p.hists[f.Name]
	if byLabel == nil {
		byLabel = make(map[string]*histBuild)
		p.hists[f.Name] = byLabel
	}
	hb := byLabel[label]
	if hb == nil {
		hb = &histBuild{}
		byLabel[label] = hb
	}
	switch suffix {
	case "_bucket":
		cum, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("histogram %q bucket count: %v", f.Name, err)
		}
		for _, b := range hb.buckets {
			if b.LE == le || (math.IsInf(b.LE, 1) && math.IsInf(le, 1)) {
				return fmt.Errorf("histogram %q duplicate bucket le=%s", f.Name, formatValue(le))
			}
		}
		hb.buckets = append(hb.buckets, Bucket{LE: le, Cum: cum})
	case "_sum":
		if hb.hasSum {
			return fmt.Errorf("histogram %q duplicate _sum", f.Name)
		}
		v, err := parseValue(value)
		if err != nil {
			return err
		}
		hb.sum, hb.hasSum = v, true
	case "_count":
		if hb.hasCount {
			return fmt.Errorf("histogram %q duplicate _count", f.Name)
		}
		c, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("histogram %q count: %v", f.Name, err)
		}
		hb.count, hb.hasCount = c, true
	}
	return nil
}

// finish assembles histogram builds, validates and canonicalizes.
func (p *expoParser) finish() (*Registry, error) {
	reg := &Registry{}
	for _, name := range p.order {
		f := p.families[name]
		if !p.typed[name] {
			return nil, fmt.Errorf("metrics: family %q declared without TYPE", name)
		}
		if f.Kind == KindHistogram {
			byLabel := p.hists[name]
			labels := make([]string, 0, len(byLabel))
			for l := range byLabel {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				hb := byLabel[l]
				if !hb.hasSum || !hb.hasCount {
					return nil, fmt.Errorf("metrics: histogram %s incomplete", seriesName(name, l))
				}
				sort.Slice(hb.buckets, func(i, j int) bool { return hb.buckets[i].LE < hb.buckets[j].LE })
				f.Series = append(f.Series, Series{
					Label: l,
					Hist:  &HistData{Buckets: hb.buckets, Sum: hb.sum, Count: hb.count},
				})
			}
		}
		// TYPE-only families survive (re-exported as a bare TYPE line),
		// matching the canonical writer.
		reg.Families = append(reg.Families, f)
	}
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	return reg, nil
}

// labelPair is one parsed key/value label.
type labelPair struct {
	key   string
	value string
}

// canonicalizePairs sorts pairs by key (rejecting duplicates) and
// renders the canonical label string.
func canonicalizePairs(pairs []labelPair) (string, error) {
	if len(pairs) == 0 {
		return "", nil
	}
	sorted := append([]labelPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	var b strings.Builder
	for i, pr := range sorted {
		if i > 0 {
			if sorted[i-1].key == pr.key {
				return "", fmt.Errorf("duplicate label key %q", pr.key)
			}
			b.WriteByte(',')
		}
		b.WriteString(CanonicalLabel(pr.key, pr.value))
	}
	return b.String(), nil
}

// splitSample splits `name[{labels}] value` into its parts.
func splitSample(line string) (name string, labels []labelPair, value string, err error) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, "", fmt.Errorf("malformed sample %q", line)
		}
		if !validMetricName(fields[0]) {
			return "", nil, "", fmt.Errorf("invalid metric name %q", fields[0])
		}
		return fields[0], nil, fields[1], nil
	}
	name = line[:brace]
	if !validMetricName(name) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[brace+1:]
	labels, rest, err = parseLabels(rest)
	if err != nil {
		return "", nil, "", err
	}
	value = strings.TrimSpace(rest)
	if value == "" || strings.ContainsAny(value, " \t") {
		return "", nil, "", fmt.Errorf("malformed value %q", value)
	}
	return name, labels, value, nil
}

// parseLabels consumes `k="v",...}` and returns the remainder after
// the closing brace.
func parseLabels(s string) ([]labelPair, string, error) {
	var pairs []labelPair
	for {
		s = strings.TrimLeft(s, " ")
		if rest, ok := strings.CutPrefix(s, "}"); ok {
			return pairs, rest, nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed labels near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelKey(key) {
			return nil, "", fmt.Errorf("invalid label key %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		value, rest, err := parseQuoted(s[1:])
		if err != nil {
			return nil, "", err
		}
		pairs = append(pairs, labelPair{key: key, value: value})
		s = rest
		if rest, ok := strings.CutPrefix(s, ","); ok {
			s = rest
			continue
		}
		if !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("malformed labels near %q", s)
		}
	}
}

// parseQuoted consumes an escaped label value up to its closing quote.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in label value")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// parseValue parses a float in any exposition spelling, rejecting
// out-of-range magnitudes (they would not round-trip).
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q: %w", s, err)
	}
	return v, nil
}

// Validate checks the structural invariants the parser relies on:
// non-empty sorted-unique families, well-formed names, histogram
// buckets strictly ascending and cumulative with a final +Inf bound
// whose count equals the series count, and no family name colliding
// with another histogram family's _bucket/_sum/_count series names.
func (r *Registry) Validate() error {
	r.sort()
	names := make(map[string]bool, len(r.Families))
	for _, f := range r.Families {
		if !validMetricName(f.Name) {
			return fmt.Errorf("metrics: invalid family name %q", f.Name)
		}
		if names[f.Name] {
			return fmt.Errorf("metrics: duplicate family %q", f.Name)
		}
		names[f.Name] = true
		if strings.ContainsRune(f.Help, '\n') {
			return fmt.Errorf("metrics: family %q help spans lines", f.Name)
		}
		seen := make(map[string]bool, len(f.Series))
		for _, s := range f.Series {
			if seen[s.Label] {
				return fmt.Errorf("metrics: duplicate series %s", seriesName(f.Name, s.Label))
			}
			seen[s.Label] = true
			if f.Kind != KindHistogram {
				if s.Hist != nil {
					return fmt.Errorf("metrics: %s %s carries histogram data", f.Kind, seriesName(f.Name, s.Label))
				}
				continue
			}
			if err := s.Hist.validate(seriesName(f.Name, s.Label)); err != nil {
				return err
			}
		}
	}
	for _, f := range r.Families {
		if f.Kind != KindHistogram {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if names[f.Name+suffix] {
				return fmt.Errorf("metrics: family %q collides with histogram %q series", f.Name+suffix, f.Name)
			}
		}
	}
	return nil
}

func (h *HistData) validate(series string) error {
	if h == nil || len(h.Buckets) == 0 {
		return fmt.Errorf("metrics: histogram %s has no buckets", series)
	}
	var prev float64 = math.Inf(-1)
	var prevCum uint64
	for _, b := range h.Buckets {
		if math.IsNaN(b.LE) || b.LE <= prev {
			return fmt.Errorf("metrics: histogram %s buckets not strictly ascending", series)
		}
		if b.Cum < prevCum {
			return fmt.Errorf("metrics: histogram %s cumulative counts decrease", series)
		}
		prev, prevCum = b.LE, b.Cum
	}
	last := h.Buckets[len(h.Buckets)-1]
	if !math.IsInf(last.LE, 1) {
		return fmt.Errorf("metrics: histogram %s missing +Inf bucket", series)
	}
	if last.Cum != h.Count {
		return fmt.Errorf("metrics: histogram %s count %d != +Inf bucket %d", series, h.Count, last.Cum)
	}
	return nil
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelKey reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
