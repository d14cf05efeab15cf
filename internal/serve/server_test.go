package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stronghold/internal/modelcfg"
)

// fakeBackend is a deterministic Backend double with per-method call
// counters and an optional gate that blocks Solve until released —
// enough to pin the HTTP layer's caching, single-flight and admission
// behavior without simulation cost.
type fakeBackend struct {
	solves, capacities, whatifs atomic.Int64
	gate                        chan struct{} // when non-nil, Solve blocks until it closes
	entered                     chan struct{} // when non-nil, Solve signals entry (buffered)
	fail                        bool
	panicFirst                  bool // the first Solve panics (after the gate)
}

func (f *fakeBackend) Solve(req SolveRequest) (SolveResponse, error) {
	n := f.solves.Add(1)
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.panicFirst && n == 1 {
		panic("backend bug")
	}
	if f.fail {
		return SolveResponse{}, fmt.Errorf("backend boom")
	}
	return SolveResponse{Request: req, ModelBillions: req.Model.SizeBillions}, nil
}

func (f *fakeBackend) Capacity(req CapacityRequest) (CapacityResponse, error) {
	f.capacities.Add(1)
	return CapacityResponse{Request: req, Platform: req.Platform}, nil
}

func (f *fakeBackend) WhatIf(req WhatIfRequest) (WhatIfResponse, error) {
	f.whatifs.Add(1)
	return WhatIfResponse{Request: req, RetentionPc: 100}, nil
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func counter(t *testing.T, s *Server, family string) float64 {
	t.Helper()
	v, ok := s.Stats().Snapshot().Value(family, "")
	if !ok {
		t.Fatalf("no value for %s", family)
	}
	return v
}

// TestCacheByteIdentical is the tentpole acceptance check: a repeated
// /v1/solve — even spelled differently — is served from the cache
// byte-identically with no second simulation, asserted through the
// cache counters.
func TestCacheByteIdentical(t *testing.T) {
	fb := &fakeBackend{}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	r1, b1 := post(t, ts, "/v1/solve", `{"model":{"size_billions":10}}`)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d, X-Cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	// Same query, different spelling: explicit defaults, reordered keys.
	r2, b2 := post(t, ts, "/v1/solve", `{"platform":"v100","model":{"batch_size":4,"size_billions":10}}`)
	if r2.StatusCode != 200 || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second: status %d, X-Cache %q", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", b1, b2)
	}
	if n := fb.solves.Load(); n != 1 {
		t.Errorf("backend ran %d times, want 1", n)
	}
	if got := counter(t, s, "stronghold_serve_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	if got := counter(t, s, "stronghold_serve_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
	if got := counter(t, s, "stronghold_serve_simulations_total"); got != 1 {
		t.Errorf("simulations = %v, want 1", got)
	}
}

func TestRequestErrors(t *testing.T) {
	s := New(&fakeBackend{}, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/solve", `{"model":`, 400},
		{"/v1/solve", `{"turbo":true}`, 400},
		{"/v1/solve", `{"model":{"size_billions":4}}}`, 400},
		{"/v1/solve", `{"model":{"size_billions":4}}]`, 400},
		{"/v1/capacity", `{"methods":["warp-drive"]}`, 400},
		{"/v1/whatif", `{"model":{"size_billions":5}}`, 400},
	} {
		resp, body := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
		if !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: no error payload: %s", tc.path, body)
		}
	}

	// Wrong verb on every endpoint.
	for _, path := range []string{"/v1/solve", "/v1/capacity", "/v1/whatif"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/methods", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/methods: status %d, want 405", resp.StatusCode)
	}
}

// A body one byte over the limit is a 413 that names the limit, and
// the responses counter records the status the reader wrote.
func TestOversizedBody(t *testing.T) {
	fb := &fakeBackend{}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := post(t, ts, "/v1/solve", strings.Repeat(" ", maxRequestBytes+1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("1 MiB limit")) {
		t.Errorf("rejection does not name the 1 MiB limit: %s", body)
	}
	if v, _ := s.Stats().Snapshot().Value("stronghold_serve_responses_total", `code="413"`); v != 1 {
		t.Errorf(`responses_total{code="413"} = %v, want 1`, v)
	}
	if n := fb.solves.Load(); n != 0 {
		t.Errorf("backend ran %d times, want 0", n)
	}
}

// TestBackendErrorNotCached pins that a 422 never poisons the cache:
// after the backend recovers, the same request succeeds.
func TestBackendErrorNotCached(t *testing.T) {
	fb := &fakeBackend{fail: true}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := post(t, ts, "/v1/solve", `{"model":{"size_billions":10}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	fb.fail = false
	resp, _ = post(t, ts, "/v1/solve", `{"model":{"size_billions":10}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("retry after backend recovery: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("error response was cached: X-Cache %q", resp.Header.Get("X-Cache"))
	}
}

// TestAdmissionControl saturates a one-slot pool with a blocked
// simulation and asserts the next distinct query is rejected with 429
// and a Retry-After hint — and that a cached query still succeeds.
func TestAdmissionControl(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	s := New(fb, Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Warm the cache while the gate is open-ended: release one call.
	go func() { fb.gate <- struct{}{} }()
	if resp, _ := post(t, ts, "/v1/solve", `{"model":{"size_billions":1}}`); resp.StatusCode != 200 {
		t.Fatalf("warm-up failed: %d", resp.StatusCode)
	}
	<-fb.entered // drain the warm-up's entry signal

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts, "/v1/solve", `{"model":{"size_billions":2}}`)
	}()
	<-fb.entered // the slow simulation holds the only slot

	resp, _ := post(t, ts, "/v1/solve", `{"model":{"size_billions":3}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	// The cache bypasses admission control entirely.
	if resp, _ := post(t, ts, "/v1/solve", `{"model":{"size_billions":1}}`); resp.StatusCode != 200 {
		t.Errorf("cached query rejected while pool saturated: %d", resp.StatusCode)
	}
	close(fb.gate)
	wg.Wait()
	if got := counter(t, s, "stronghold_serve_rejected_total"); got != 1 {
		t.Errorf("rejected = %v, want 1", got)
	}
}

// TestSingleFlight hammers one query with concurrent clients while the
// backend is blocked and asserts exactly one simulation ran — the
// leader's — with every follower sharing its bytes.
func TestSingleFlight(t *testing.T) {
	const clients = 8
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, clients)}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = post(t, ts, "/v1/solve", `{"model":{"size_billions":10}}`)
		}(i)
	}
	<-fb.entered // leader is inside the backend; followers must pile up
	close(fb.gate)
	wg.Wait()

	if n := fb.solves.Load(); n != 1 {
		t.Errorf("backend ran %d times, want 1", n)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	hits := counter(t, s, "stronghold_serve_cache_hits_total")
	shared := counter(t, s, "stronghold_serve_singleflight_shared_total")
	misses := counter(t, s, "stronghold_serve_cache_misses_total")
	if misses != 1 {
		t.Errorf("misses = %v, want 1", misses)
	}
	// Every non-leader either joined the flight or (by racing in after
	// the fill) hit the cache.
	if hits+shared != clients-1 {
		t.Errorf("hits(%v) + shared(%v) != %d", hits, shared, clients-1)
	}
}

// TestPanicReleasesFlight: a backend panic answers the leader and the
// follower that joined its flight with the same 500, releases the
// flight, and leaves the in-flight gauge at zero — so a later identical
// request runs fresh instead of blocking forever.
func TestPanicReleasesFlight(t *testing.T) {
	const query = `{"model":{"size_billions":10}}`
	_, hash, err := CanonicalSolve([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 2), panicFirst: true}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, 2)
	send := func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(query))
		if err != nil {
			t.Error(err)
			replies <- reply{}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), body}
	}
	go send()
	<-fb.entered // the leader is inside the backend
	go send()
	for joined := 0; joined == 0; runtime.Gosched() {
		s.flights.mu.Lock()
		if c := s.flights.calls[hash]; c != nil {
			joined = c.dups
		}
		s.flights.mu.Unlock()
	}
	close(fb.gate) // the leader panics with a follower waiting on it

	a, b := <-replies, <-replies
	if a.cache != "miss" {
		a, b = b, a
	}
	if a.status != http.StatusInternalServerError || b.status != http.StatusInternalServerError {
		t.Fatalf("statuses %d (leader) and %d (follower), want 500 for both", a.status, b.status)
	}
	if a.cache != "miss" || b.cache != "shared" {
		t.Errorf("X-Cache %q and %q, want miss and shared", a.cache, b.cache)
	}
	if !bytes.Equal(a.body, b.body) || !bytes.Contains(a.body, []byte(`"error"`)) {
		t.Errorf("leader and follower bodies differ or lack the error payload:\n%s\n%s", a.body, b.body)
	}

	resp, body := post(t, ts, "/v1/solve", query)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("request after the panic: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if n := fb.solves.Load(); n != 2 {
		t.Errorf("backend ran %d times, want 2 (the panic, then a fresh run)", n)
	}
	if got := counter(t, s, "stronghold_serve_inflight"); got != 0 {
		t.Errorf("inflight = %v after drain, want 0", got)
	}
}

// TestConcurrentClients is the satellite race suite: N clients × M
// distinct queries, asserting the single-simulation-per-unique-hash
// invariant and counter conservation under real goroutine scheduling.
func TestConcurrentClients(t *testing.T) {
	const clients, queries = 8, 5
	fb := &fakeBackend{}
	s := New(fb, Options{MaxConcurrent: queries * clients}) // no 429s in this test
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				body := fmt.Sprintf(`{"model":{"size_billions":%d}}`, q+1)
				resp, b := post(t, ts, "/v1/solve", body)
				if resp.StatusCode != 200 {
					t.Errorf("status %d: %s", resp.StatusCode, b)
				}
			}
		}()
	}
	wg.Wait()

	if n := fb.solves.Load(); n != queries {
		t.Errorf("backend ran %d times, want %d (one per unique query)", n, queries)
	}
	total := float64(clients * queries)
	hits := counter(t, s, "stronghold_serve_cache_hits_total")
	misses := counter(t, s, "stronghold_serve_cache_misses_total")
	shared := counter(t, s, "stronghold_serve_singleflight_shared_total")
	if hits+misses+shared != total {
		t.Errorf("hits(%v)+misses(%v)+shared(%v) != %v requests", hits, misses, shared, total)
	}
	if misses != queries {
		t.Errorf("misses = %v, want %v", misses, queries)
	}
	if got := counter(t, s, "stronghold_serve_cache_entries"); got != queries {
		t.Errorf("cache entries = %v, want %v", got, queries)
	}
	if got := counter(t, s, "stronghold_serve_inflight"); got != 0 {
		t.Errorf("inflight = %v after drain, want 0", got)
	}
}

// TestShutdownDrain pins the drain contract: Shutdown blocks until
// in-flight handlers finish, and requests arriving after it starts
// are refused with 503.
func TestShutdownDrain(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	result := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, "/v1/solve", `{"model":{"size_billions":10}}`)
		result <- resp.StatusCode
	}()
	<-fb.entered // a handler is in flight

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	// Shutdown must not return while the handler is blocked. Poll the
	// closed flag instead of sleeping: once set, new requests get 503.
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			break
		}
	}
	select {
	case <-done:
		t.Fatal("Shutdown returned with a handler in flight")
	default:
	}
	if resp, _ := post(t, ts, "/v1/solve", `{"model":{"size_billions":1}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown status %d, want 503", resp.StatusCode)
	}

	close(fb.gate)
	if code := <-result; code != 200 {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
	<-done // Shutdown returns once drained
}

// TestMetricsEndpoint asserts /metrics speaks canonical exposition
// format and reflects the request counters.
func TestMetricsEndpoint(t *testing.T) {
	s := New(&fakeBackend{}, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post(t, ts, "/v1/solve", `{"model":{"size_billions":10}}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		`stronghold_serve_requests_total{endpoint="/v1/solve"} 1`,
		`stronghold_serve_responses_total{code="200"} 1`,
		"# TYPE stronghold_serve_cache_entries gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMethodsEndpoint sanity-checks the registry dump.
func TestMethodsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(&fakeBackend{}, Options{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`"stronghold"`, `"megatron-lm"`, `"plan_driven"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("methods missing %s", want)
		}
	}
}

// TestCapacityAndWhatIfCached covers the other two simulation
// endpoints' cache paths.
func TestCapacityAndWhatIfCached(t *testing.T) {
	fb := &fakeBackend{}
	ts := httptest.NewServer(New(fb, Options{}))
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, _ := post(t, ts, "/v1/capacity", `{"platform":"a10"}`); resp.StatusCode != 200 {
			t.Fatalf("capacity status %d", resp.StatusCode)
		}
		whatif := `{"model":{"size_billions":5},"faults":"h2d:slow(at=0s,dur=1s,every=2s,factor=0.5)"}`
		if resp, _ := post(t, ts, "/v1/whatif", whatif); resp.StatusCode != 200 {
			t.Fatalf("whatif status %d", resp.StatusCode)
		}
	}
	if n := fb.capacities.Load(); n != 1 {
		t.Errorf("capacity backend ran %d times, want 1", n)
	}
	if n := fb.whatifs.Load(); n != 1 {
		t.Errorf("whatif backend ran %d times, want 1", n)
	}
}

// A /v1/whatif deeper than modelcfg.MaxLayers is a 400 that names the
// limit, decided at canonicalization: the backend never runs.
func TestWhatIfRejectsDeepModel(t *testing.T) {
	fb := &fakeBackend{}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	deep := `{"model":{"layers":1000000,"hidden":256},"faults":"h2d:slow(at=0s,dur=1s,every=2s,factor=0.5)"}`
	resp, body := post(t, ts, "/v1/whatif", deep)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if limit := fmt.Sprintf("%d-layer limit", modelcfg.MaxLayers); !bytes.Contains(body, []byte(limit)) {
		t.Errorf("rejection does not name the %q: %s", limit, body)
	}
	if n := fb.whatifs.Load(); n != 0 {
		t.Errorf("whatif backend ran %d times, want 0", n)
	}
	if got := counter(t, s, "stronghold_serve_simulations_total"); got != 0 {
		t.Errorf("simulations = %v, want 0", got)
	}
}

// A /v1/whatif rule against a target no op runs on is a 400 that lists
// the valid targets, decided at canonicalization: the backend never
// runs.
func TestWhatIfRejectsUnknownTarget(t *testing.T) {
	fb := &fakeBackend{}
	s := New(fb, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := post(t, ts, "/v1/whatif", `{"faults":"nic:stall(at=0s,dur=1ms)"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if want := `unknown target \"nic\" (want h2d, d2h, nvme, cpu)`; !bytes.Contains(body, []byte(want)) {
		t.Errorf("rejection does not list the targets %q: %s", want, body)
	}
	if n := fb.whatifs.Load(); n != 0 {
		t.Errorf("whatif backend ran %d times, want 0", n)
	}
}
