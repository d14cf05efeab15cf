// Golden-fixture tests live in an external test package so they can
// drive the real simulation backend (internal/serve itself must not
// import simulation code — see the package comment).
package serve_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRequests is the deterministic request sequence every golden
// run replays. The repeated solve pins a cache hit into the /metrics
// fixture, so counter drift is as visible as schema drift.
var goldenRequests = []struct {
	file, method, path, body string
}{
	{"solve.json", "POST", "/v1/solve",
		`{"model":{"size_billions":4},"coopt":true}`},
	{"solve_repeat.json", "POST", "/v1/solve",
		`{"coopt":true,"model":{"batch_size":4,"size_billions":4},"platform":"V100"}`},
	{"capacity.json", "POST", "/v1/capacity",
		`{"platform":"v100"}`},
	{"whatif.json", "POST", "/v1/whatif",
		`{"model":{"size_billions":2},"faults":"h2d:slow(at=0s,dur=30s,every=60s,factor=0.6)"}`},
	{"methods.json", "GET", "/v1/methods", ""},
	{"metrics.prom", "GET", "/metrics", ""},
}

// replay runs the golden sequence against a fresh real-backend server
// and returns each response body in order.
func replay(t *testing.T, opts serve.Options) [][]byte {
	t.Helper()
	ts := httptest.NewServer(serve.New(backend.Sim{}, opts))
	defer ts.Close()
	var bodies [][]byte
	for _, req := range goldenRequests {
		var resp *http.Response
		var err error
		if req.method == "GET" {
			resp, err = http.Get(ts.URL + req.path)
		} else {
			resp, err = http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s: status %d: %s", req.method, req.path, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// TestGoldenEndpoints pins every endpoint's response bytes to
// checked-in fixtures. Run with -update after an intentional schema
// change; CI's golden-drift job regenerates and fails on any
// uncommitted diff.
func TestGoldenEndpoints(t *testing.T) {
	bodies := replay(t, serve.Options{})
	for i, req := range goldenRequests {
		t.Run(req.file, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", req.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, bodies[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(bodies[i], want) {
				t.Errorf("%s drifted from fixture:\n--- got ---\n%s\n--- want ---\n%s",
					req.file, bodies[i], want)
			}
		})
	}
	// The repeated solve must be byte-identical to the first — that is
	// the cache contract the fixture pair witnesses.
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("repeat solve differs from first response")
	}
}

// TestGoldenStableAcrossPoolSizes replays the sequence at different
// worker-pool sizes and asserts byte-identical bodies: concurrency
// configuration must never leak into responses.
func TestGoldenStableAcrossPoolSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the golden sequence twice")
	}
	one := replay(t, serve.Options{MaxConcurrent: 1, CacheSize: 1})
	many := replay(t, serve.Options{MaxConcurrent: 16})
	for i, req := range goldenRequests {
		if req.file == "metrics.prom" {
			// Cache-size differences legitimately change the counters.
			continue
		}
		if !bytes.Equal(one[i], many[i]) {
			t.Errorf("%s differs between pool sizes:\n%s\nvs\n%s", req.file, one[i], many[i])
		}
	}
}

// TestRealBackendConcurrent sends distinct solve, capacity and what-if
// queries from one goroutine each, all at once, to a server over the
// real simulation backend. Every body must equal the answer a fresh
// server gives that query alone, so simulations that overlap in time
// share no state.
func TestRealBackendConcurrent(t *testing.T) {
	const whatif = `"faults":"h2d:slow(at=0s,dur=30s,every=60s,factor=0.6)"`
	queries := []struct{ path, body string }{
		{"/v1/solve", `{"model":{"size_billions":4},"coopt":true}`},
		{"/v1/solve", `{"model":{"size_billions":10}}`},
		{"/v1/solve", `{"model":{"layers":20,"hidden":2560},"platform":"a10"}`},
		{"/v1/capacity", `{"platform":"v100"}`},
		{"/v1/capacity", `{"platform":"a10","methods":["stronghold","zero-offload"]}`},
		{"/v1/whatif", `{"model":{"size_billions":2},` + whatif + `}`},
		{"/v1/whatif", `{"model":{"size_billions":1},"method":"zero-offload",` + whatif + `}`},
		{"/v1/whatif", `{"model":{"size_billions":2},"window":2,"disable_adapt":true,` + whatif + `}`},
	}
	send := func(ts *httptest.Server, path, body string) (int, []byte, error) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	want := make([][]byte, len(queries))
	for i, q := range queries {
		ts := httptest.NewServer(serve.New(backend.Sim{}, serve.Options{}))
		status, body, err := send(ts, q.path, q.body)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", q.path, q.body, status, body)
		}
		want[i] = body
	}

	ts := httptest.NewServer(serve.New(backend.Sim{}, serve.Options{MaxConcurrent: len(queries)}))
	defer ts.Close()
	got := make([][]byte, len(queries))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, path, body string) {
			defer wg.Done()
			<-start
			status, b, err := send(ts, path, body)
			if err != nil || status != http.StatusOK {
				t.Errorf("%s %s: status %d, error %v: %s", path, body, status, err, b)
			}
			got[i] = b
		}(i, q.path, q.body)
	}
	close(start)
	wg.Wait()
	for i, q := range queries {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s %s: concurrent body differs from the sequential one:\n%s\nvs\n%s",
				q.path, q.body, got[i], want[i])
		}
	}
}
