package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden suite fixture")

// coreRows are the suite scenarios that run the STRONGHOLD engine with
// a metrics collector attached; the baseline rows have no collector.
var coreRows = []string{
	"stronghold-1p7b",
	"stronghold-1p7b-multistream",
	"stronghold-4b",
	"stronghold-4b-nvme",
	"baseline-no-opt-1p7b",
}

func encodeSuite(t *testing.T, rows map[string]Scenario) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenSuite pins every suite scenario's result. The simulator is
// deterministic, so any drift in a calibration constant, schedule or
// metric shows up as a byte diff. Regenerate with
// `go test ./internal/bench -run TestGoldenSuite -update` and review
// the diff like any result change.
func TestGoldenSuite(t *testing.T) {
	cases := Suite()
	serial := make(map[string]Scenario, len(cases))
	for _, c := range cases {
		serial[c.Name] = c.Run(1)
	}
	got := encodeSuite(t, serial)
	path := filepath.Join("testdata", "suite.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		var old map[string]Scenario
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatalf("%s is not a scenario map: %v", path, err)
		}
		t.Errorf("suite drifted from %s (run with -update and review)", path)
		for _, c := range cases {
			if old[c.Name] != serial[c.Name] {
				t.Errorf("%s:\nwant %+v\ngot  %+v", c.Name, old[c.Name], serial[c.Name])
			}
		}
	}

	// Scenario results may not depend on how many run at once: the
	// same cases on concurrent goroutines must encode to the same bytes.
	results := make([]Scenario, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c Case) {
			defer wg.Done()
			results[i] = c.Run(1)
		}(i, c)
	}
	wg.Wait()
	concurrent := make(map[string]Scenario, len(cases))
	for i, c := range cases {
		concurrent[c.Name] = results[i]
	}
	if !bytes.Equal(encodeSuite(t, concurrent), got) {
		t.Error("concurrent sweep produced different scenario bytes than the serial sweep")
	}

	for _, name := range coreRows {
		s, ok := serial[name]
		if !ok {
			t.Errorf("%s: missing from the suite", name)
			continue
		}
		if s.Throughput <= 0 || s.TFLOPS <= 0 || s.MetricSamples == 0 || s.H2DP50NS <= 0 {
			t.Errorf("%s: fields not populated: %+v", name, s)
		}
		if s.H2DP99NS < s.H2DP50NS {
			t.Errorf("%s: h2d p99 %d < p50 %d", name, s.H2DP99NS, s.H2DP50NS)
		}
	}
}
