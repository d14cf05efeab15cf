package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stronghold/hostbench/workload"
	"stronghold/internal/serve"
	"stronghold/internal/serve/backend"
)

// reqHeader carries a request's index in a traced run, so the server
// span can name the request span that caused it.
const reqHeader = "X-Hostbench-Req"

// server is stronghold-serve in this process behind a loopback
// listener, with one client per connection. When rec is set, a
// middleware and a timing backend record spans while tracing is on.
type server struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client
	rec     *recorder
	tracing atomic.Bool
	// hot holds the body each hot-set entry's first miss returned; every
	// later response to that entry must repeat it byte for byte.
	hot [][]byte
}

func startServer(clients int, rec *recorder) *server {
	s := &server{rec: rec}
	var b serve.Backend = backend.Sim{}
	if rec != nil {
		b = timedBackend{inner: b, s: s}
	}
	// One admission slot per client: a closed loop has at most that many
	// misses in flight, so admission never refuses one with 429.
	s.srv = serve.New(b, serve.Options{MaxConcurrent: clients})
	var h http.Handler = s.srv
	if rec != nil {
		h = s.middleware(s.srv)
	}
	s.ts = httptest.NewServer(h)
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return s
}

// close stops the listener after in-flight requests finish, then
// drains the server.
func (s *server) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Shutdown()
}

// warm opens every client's connection.
func (s *server) warm() error {
	for _, c := range s.clients {
		resp, err := c.Get(s.ts.URL + "/v1/methods")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *server) send(c *http.Client, r workload.Request, idx int) (status int, cache string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.rec != nil {
		req.Header.Set(reqHeader, strconv.Itoa(idx))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware records a serve span around each ServeHTTP call.
func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tracing.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		t1 := time.Now()
		idx, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			idx = -1
		}
		s.rec.add(span{Layer: workload.LayerServe, Call: "serve.Server.ServeHTTP", Name: r.URL.Path, Req: idx,
			Start: s.rec.at(t0), End: s.rec.at(t1), Key: w.Header().Get("X-Cache"), Status: sw.status})
	})
}

// timedBackend records a backend span around each call, keyed by the
// canonical request so it can be matched to the request that missed.
type timedBackend struct {
	inner serve.Backend
	s     *server
}

func (b timedBackend) record(call, path string, req any, t0, t1 time.Time) {
	b.s.rec.add(span{Layer: workload.LayerBackend, Call: call, Req: -1,
		Start: b.s.rec.at(t0), End: b.s.rec.at(t1), Key: workload.Key(path, req)})
}

func (b timedBackend) Solve(req serve.SolveRequest) (serve.SolveResponse, error) {
	if !b.s.tracing.Load() {
		return b.inner.Solve(req)
	}
	t0 := time.Now()
	resp, err := b.inner.Solve(req)
	b.record("backend.Sim.Solve", workload.PathSolve, req, t0, time.Now())
	return resp, err
}

func (b timedBackend) Capacity(req serve.CapacityRequest) (serve.CapacityResponse, error) {
	if !b.s.tracing.Load() {
		return b.inner.Capacity(req)
	}
	t0 := time.Now()
	resp, err := b.inner.Capacity(req)
	b.record("backend.Sim.Capacity", workload.PathCapacity, req, t0, time.Now())
	return resp, err
}

func (b timedBackend) WhatIf(req serve.WhatIfRequest) (serve.WhatIfResponse, error) {
	if !b.s.tracing.Load() {
		return b.inner.WhatIf(req)
	}
	t0 := time.Now()
	resp, err := b.inner.WhatIf(req)
	b.record("backend.Sim.WhatIf", workload.PathWhatIf, req, t0, time.Now())
	return resp, err
}

// sent is a response to a request the workload never repeats, kept to
// be checked against a direct backend call after the run. It holds the
// stream index, not the request, and the first 8 bytes of the body's
// SHA-256, so what the benchmark keeps stays small next to the
// server's own memory.
type sent struct {
	idx uint32
	sum uint64
}

func bodySum(body []byte) uint64 {
	h := sha256.Sum256(body)
	return binary.LittleEndian.Uint64(h[:8])
}

// loadStats is one measured phase of a serve workload.
type loadStats struct {
	loopStats
	sent   []sent
	wall   time.Duration
	issued int // requests taken from the stream
}

// client is one closed-loop client's record of its requests.
type client struct {
	sent      chunked[sent]
	attempted int
	failed    int
}

// do sends request idx, checks a hot response against its first miss
// on the spot, and keeps others for the after-run check.
func (s *server) do(c *http.Client, st *client, lats *reservoir, idx int, r workload.Request) {
	t0 := time.Now()
	status, _, body, err := s.send(c, r, idx)
	t1 := time.Now()
	st.attempted++
	lats.add(ms(t1.Sub(t0)))
	ok := err == nil && status == http.StatusOK
	switch {
	case !ok:
	case r.Hot >= 0:
		ok = bytes.Equal(body, s.hot[r.Hot])
	default:
		st.sent.add(sent{uint32(idx), bodySum(body)})
	}
	if !ok {
		st.failed++
	}
	if s.tracing.Load() {
		s.rec.add(span{Layer: "client", Call: "http.Client.Do", Name: r.Path, Req: int64(idx),
			Start: s.rec.at(t0), End: s.rec.at(t1), Status: status})
	}
}

// closedLoop runs one client per connection, each sending its next
// request of the stream, from index first, when the previous one
// returns, until d has passed.
func (s *server) closedLoop(first int, gen func(int) workload.Request, d time.Duration, seed uint64) (loadStats, error) {
	var next atomic.Int64
	next.Store(int64(first))
	lats, rss := newReservoir(seed), startRSS()
	start := time.Now()
	deadline := start.Add(d)
	per := make([]client, len(s.clients))
	var wg sync.WaitGroup
	for w, c := range s.clients {
		wg.Add(1)
		go func(st *client, c *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				s.do(c, st, lats, i, gen(i))
			}
		}(&per[w], c)
	}
	wg.Wait()
	var st loadStats
	if err := st.finish(lats, rss); err != nil {
		return st, err
	}
	for i := range per {
		st.sent = per[i].sent.appendTo(st.sent)
		st.attempted += per[i].attempted
		st.failed += per[i].failed
	}
	st.wall = time.Since(start)
	st.issued = int(next.Load()) - first
	st.opsPerS = float64(st.attempted) / st.wall.Seconds()
	st.opsNote = fmt.Sprintf("%d requests in %.3f s, closed loop, %d clients", st.attempted, st.wall.Seconds(), len(s.clients))
	return st, nil
}

// checkSent counts the kept responses that fail a check: a request
// whose cache key an earlier kept one already had (these streams never
// repeat), or a body other than a direct backend call's on the
// canonical request. The backend calls run on workers goroutines.
func checkSent(ss []sent, gen func(int) workload.Request, workers int) int {
	var failed atomic.Int64
	seen := make(map[string]bool, len(ss))
	for _, x := range ss {
		r := gen(int(x.idx))
		_, hash, err := workload.Canonical(r.Path, r.Body)
		if err != nil || seen[hash] {
			failed.Add(1)
		}
		seen[hash] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ss); i += workers {
				r := gen(int(ss[i].idx))
				want, err := workload.Expected(backend.Sim{}, r.Path, r.Body)
				if err != nil || bodySum(want) != ss[i].sum {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(failed.Load())
}

// serveMetrics derives the serve and backend layers' metrics from a
// traced phase's spans. keyOf returns the canonical key of request idx;
// wall and clients scale the backend's busy share.
func serveMetrics(spans []span, keyOf func(idx int64) string, wall time.Duration, clients int) []metric {
	var serveSpans, backends []span
	var canonical []float64
	for _, s := range spans {
		switch {
		case s.Call == "serve.Server.ServeHTTP":
			serveSpans = append(serveSpans, s)
		case s.Layer == workload.LayerBackend:
			backends = append(backends, s)
		case strings.HasPrefix(s.Call, "serve.Canonical"):
			canonical = append(canonical, float64(s.dur()))
		}
	}
	byKey := make(map[string][]span)
	busy := 0.0
	for _, b := range backends {
		byKey[b.Key] = append(byKey[b.Key], b)
		busy += float64(b.dur())
	}
	var hits, misses, shared, rejected int
	var hitDur, overhead []float64
	for _, s := range serveSpans {
		if s.Status == http.StatusTooManyRequests {
			rejected++
		}
		switch s.Key {
		case "hit":
			hits++
			hitDur = append(hitDur, float64(s.dur()))
		case "shared":
			shared++
		case "miss":
			misses++
			if s.Status != http.StatusOK || s.Req < 0 {
				continue
			}
			inner := 0.0
			for _, b := range byKey[keyOf(s.Req)] {
				if b.Start >= s.Start && b.End <= s.End {
					inner += float64(b.dur())
				}
			}
			overhead = append(overhead, float64(s.dur())-inner)
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	call := func(name string) []float64 { return durations(backends, byCall(name)) }
	nsMS := float64(time.Millisecond)
	busyShare := 0.0
	if wall > 0 && clients > 0 {
		busyShare = busy / (float64(wall) * float64(clients))
	}
	lookups := hits + misses + shared
	whatifs := call("backend.Sim.WhatIf")
	return []metric{
		{"serve.canonical_us_p50", "us", quantile(canonical, 0.5) / 1e3, fmt.Sprintf("n=%d", len(canonical))},
		{"serve.hit_ratio", "ratio", ratio(hits, lookups), fmt.Sprintf("of %d cache lookups", lookups)},
		{"serve.hit_us_p50", "us", quantile(hitDur, 0.5) / 1e3, fmt.Sprintf("ServeHTTP on a hit, n=%d", len(hitDur))},
		{"serve.shared_ratio", "ratio", ratio(shared, misses+shared), fmt.Sprintf("of %d misses and shared waits", misses+shared)},
		{"serve.reject_ratio", "ratio", ratio(rejected, len(serveSpans)), fmt.Sprintf("of %d requests", len(serveSpans))},
		{"serve.overhead_us_p50", "us", quantile(overhead, 0.5) / 1e3, fmt.Sprintf("miss ServeHTTP minus its backend call, n=%d", len(overhead))},
		{"backend.whatif_ms_p50", "ms", quantile(whatifs, 0.5) / nsMS, fmt.Sprintf("n=%d", len(whatifs))},
		{"backend.whatif_ms_p90", "ms", quantile(whatifs, 0.9) / nsMS, fmt.Sprintf("n=%d", len(whatifs))},
		{"backend.solve_us_p50", "us", quantile(call("backend.Sim.Solve"), 0.5) / 1e3, fmt.Sprintf("n=%d", len(call("backend.Sim.Solve")))},
		{"backend.capacity_us_p50", "us", quantile(call("backend.Sim.Capacity"), 0.5) / 1e3, fmt.Sprintf("n=%d", len(call("backend.Sim.Capacity")))},
		{"backend.calls_per_request", "ratio", ratio(len(backends), len(serveSpans)), fmt.Sprintf("%d calls for %d requests", len(backends), len(serveSpans))},
		{"backend.busy_share", "ratio", busyShare, fmt.Sprintf("of %.3g s x %d connections", wall.Seconds(), clients)},
	}
}

// serveEnv is a serve workload ready to run.
type serveEnv struct {
	srv   *server
	gen   func(int) workload.Request // the request stream, endless
	first int                        // the first index set-up did not send
	// probes lists what the stage probe decomposes after a traced phase.
	probes func(traced loadStats) []probeItem
}

// runServe times the set-up, then drives the stream closed loop with
// one client per CPU. Traced, it runs a quarter of the time untraced as
// the overhead baseline, then traced, then the probes.
func runServe(o opts, setup func(*recorder) (*serveEnv, error)) (outcome, error) {
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	env, setupS, reps, err := timeSetup(func() (*serveEnv, error) { return setup(rec) }, func(e *serveEnv) { e.srv.close() })
	if err != nil {
		return outcome{}, err
	}
	defer env.srv.close()
	if !o.traced {
		st, err := env.srv.closedLoop(env.first, env.gen, o.run, o.seed)
		if err != nil {
			return outcome{}, err
		}
		m := endToEnd(setupS, reps, st.loopStats, "closed loop")
		return outcome{metrics: m, attempted: st.attempted, failed: st.failed + checkSent(st.sent, env.gen, o.clients)}, nil
	}

	untracedD, tracedD, _, _ := split(o.run)
	base, err := env.srv.closedLoop(env.first, env.gen, untracedD, o.seed)
	if err != nil {
		return outcome{}, err
	}
	g0 := sampleGC()
	env.srv.tracing.Store(true)
	traced, err := env.srv.closedLoop(env.first+base.issued, env.gen, tracedD, o.seed)
	env.srv.tracing.Store(false)
	if err != nil {
		return outcome{}, err
	}
	gc := gcMetric(g0, sampleGC())

	base.failed += checkSent(base.sent, env.gen, o.clients)
	traced.failed += checkSent(traced.sent, env.gen, o.clients)
	keyOf := func(idx int64) string { return requestKey(env.gen(int(idx))) }
	serveLayer := func(spans []span) []metric {
		return serveMetrics(spans, keyOf, traced.wall, len(env.srv.clients))
	}
	return finishTraced(o, rec, env.probes(traced), base.loopStats, traced.loopStats, gc, serveLayer)
}

// requestKey is a request's canonical key (see workload.Key).
func requestKey(r workload.Request) string {
	canon, _, err := workload.Canonical(r.Path, r.Body)
	if err != nil {
		return ""
	}
	return workload.Key(r.Path, canon)
}

// requestItem is the stage probe of one request: its body through the
// canonicalizer and, for a solve or what-if, its simulation.
func requestItem(r workload.Request) probeItem {
	it := probeItem{name: r.Path, path: r.Path, body: r.Body}
	if s, ok, err := workload.SimFor(r.Path, r.Body); err == nil && ok {
		it.name = s.Name
		it.sim = &s
		it.solveOnly = r.Path == workload.PathSolve
	}
	return it
}

// setupHot builds serve-hot: a server whose cache holds the whole hot
// set, each entry's first miss checked against a direct backend call.
func setupHot(o opts, rec *recorder) (*serveEnv, error) {
	hot, err := workload.NewHot(o.seed)
	if err != nil {
		return nil, err
	}
	srv := startServer(o.clients, rec)
	srv.hot = make([][]byte, len(hot.Entries))
	for e, entry := range hot.Entries {
		req := workload.Request{Path: entry.Path, Body: entry.Spellings[0], Hot: e}
		status, cache, body, err := srv.send(srv.clients[0], req, -1)
		if err == nil && (status != http.StatusOK || cache != "miss") {
			err = fmt.Errorf("status %d, X-Cache %q: %s", status, cache, body)
		}
		var want []byte
		if err == nil {
			want, err = workload.Expected(backend.Sim{}, req.Path, req.Body)
		}
		if err == nil && !bytes.Equal(body, want) {
			err = fmt.Errorf("body differs from a direct backend call")
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("pre-filling hot entry %s %s: %w", entry.Path, entry.Spellings[0], err)
		}
		srv.hot[e] = body
	}
	if err := srv.warm(); err != nil {
		srv.close()
		return nil, err
	}
	// Probe every hot entry, then as many of the traced phase's unique
	// solves.
	probes := func(traced loadStats) []probeItem {
		var items []probeItem
		for _, e := range hot.Entries {
			items = append(items, requestItem(workload.Request{Path: e.Path, Body: e.Spellings[0]}))
		}
		for _, x := range traced.sent[:min(len(traced.sent), len(hot.Entries))] {
			items = append(items, requestItem(hot.Request(int(x.idx))))
		}
		return items
	}
	return &serveEnv{srv: srv, gen: hot.Request, probes: probes}, nil
}

// coldWarmDecks is how many decks of the stream set-up sends: enough
// that lazy initialization is done before timing, and that set-up's
// cost averages over requests instead of following a few of them.
const coldWarmDecks = 5

// setupCold builds serve-cold: a server warmed by the stream's first
// decks, each response checked against a direct backend call; the run
// continues the stream.
func setupCold(o opts, rec *recorder) (*serveEnv, error) {
	cold := workload.NewCold(o.seed)
	srv := startServer(o.clients, rec)
	for i := 0; i < coldWarmDecks*workload.ColdDeck; i++ {
		r := cold.Request(i)
		status, _, body, err := srv.send(srv.clients[i%len(srv.clients)], r, i)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var want []byte
		if err == nil {
			want, err = workload.Expected(backend.Sim{}, r.Path, r.Body)
		}
		if err == nil && !bytes.Equal(body, want) {
			err = fmt.Errorf("body differs from a direct backend call")
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up request %d %s: %w", i, r.Body, err)
		}
	}
	// Probe the traced phase's first requests, two decks' worth: the
	// stage probe visits every item at least once.
	probes := func(traced loadStats) []probeItem {
		var items []probeItem
		for _, x := range traced.sent[:min(len(traced.sent), 2*workload.ColdDeck)] {
			items = append(items, requestItem(cold.Request(int(x.idx))))
		}
		return items
	}
	return &serveEnv{srv: srv, gen: cold.Request, first: coldWarmDecks * workload.ColdDeck, probes: probes}, nil
}

func runHot(o opts) (outcome, error) {
	return runServe(o, func(rec *recorder) (*serveEnv, error) { return setupHot(o, rec) })
}

func runCold(o opts) (outcome, error) {
	return runServe(o, func(rec *recorder) (*serveEnv, error) { return setupCold(o, rec) })
}
