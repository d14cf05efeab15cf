package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"stronghold/internal/metrics"
	"stronghold/internal/modelcfg"
)

// Options tunes the server. The zero value takes every default.
type Options struct {
	// CacheSize bounds the result cache in entries (default 256;
	// negative disables caching).
	CacheSize int
	// MaxConcurrent bounds the simulations running at once — the
	// admission-control worker pool (default 4). Requests that miss
	// the cache when the pool is saturated are rejected with 429 and
	// a Retry-After hint rather than queued: a capacity-planning
	// query is interactive, and an honest "try again in a second"
	// beats an unbounded queue.
	MaxConcurrent int
	// RetryAfterSeconds is the Retry-After hint on 429s (default 1).
	RetryAfterSeconds int
	// Stats receives the server-side counters (default: a fresh set).
	Stats *metrics.ServeStats
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 4
	}
	if o.RetryAfterSeconds == 0 {
		o.RetryAfterSeconds = 1
	}
	if o.Stats == nil {
		o.Stats = metrics.NewServeStats()
	}
	return o
}

// Server is the HTTP layer: routing, canonicalization, caching,
// single-flight, admission control and metrics. It owns no
// goroutines — net/http's listener (in cmd/stronghold-serve or
// httptest) drives the handlers — and never reads the wall clock, so
// response bodies are pure functions of the request and the backend.
type Server struct {
	backend Backend
	opts    Options
	stats   *metrics.ServeStats
	cache   *resultCache
	flights *flightGroup
	pool    chan struct{} // admission semaphore: one token per running simulation
	mux     *http.ServeMux

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	methods  []byte // /v1/methods body, rendered once
}

// New builds a Server over the backend.
func New(b Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		backend: b,
		opts:    opts,
		stats:   opts.Stats,
		cache:   newResultCache(opts.CacheSize),
		flights: newFlightGroup(),
		pool:    make(chan struct{}, opts.MaxConcurrent),
		mux:     http.NewServeMux(),
	}
	s.methods = s.renderMethods()
	s.mux.HandleFunc("/v1/solve", s.wrap(s.handleSolve))
	s.mux.HandleFunc("/v1/capacity", s.wrap(s.handleCapacity))
	s.mux.HandleFunc("/v1/whatif", s.wrap(s.handleWhatIf))
	s.mux.HandleFunc("/v1/methods", s.wrap(s.handleMethods))
	s.mux.HandleFunc("/metrics", s.wrap(s.handleMetrics))
	return s
}

// Stats exposes the server-side counter set (for tests and embedders).
func (s *Server) Stats() *metrics.ServeStats { return s.stats }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops admitting requests and blocks until every in-flight
// handler has drained. It composes with http.Server.Shutdown in the
// cmd layer: the listener drains connections, Shutdown drains work.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
}

// wrap is the common handler prelude: refuse new work when closing,
// track in-flight handlers for the drain, and count the request and
// its response status.
func (s *Server) wrap(h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write(errorBody("server is shutting down"))
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()

		s.stats.Request(r.URL.Path)
		s.stats.InflightAdd(1)
		defer s.stats.InflightAdd(-1)
		status := h(w, r)
		s.stats.Response(strconv.Itoa(status))
	}
}

// errorBody renders the uniform error payload.
func errorBody(msg string) []byte {
	body, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		panic("serve: error marshal: " + err.Error())
	}
	return append(body, '\n')
}

// writeJSON writes a prepared JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return status
}

// marshalResponse renders a response body in its canonical encoding:
// two-space-indented JSON with a trailing newline. The bytes are what
// the cache stores, so the encoding is part of the byte-identity
// contract.
func marshalResponse(v any) []byte {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic("serve: response marshal: " + err.Error())
	}
	return append(body, '\n')
}

// maxRequestBytes bounds request bodies; capacity-planning queries
// are small, and the decoder should not be a memory amplifier.
const maxRequestBytes = 1 << 20

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer func() { _ = r.Body.Close() }()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
}

// simulate is the shared query path for the three simulation
// endpoints: cache lookup by canonical hash, single-flight dedup of
// concurrent identical misses, admission control on the leader, and
// cache fill on success.
func (s *Server) simulate(w http.ResponseWriter, hash string, run func() (int, []byte)) int {
	if body, ok := s.cache.Get(hash); ok {
		s.stats.CacheHit()
		w.Header().Set("X-Cache", "hit")
		return writeJSON(w, http.StatusOK, body)
	}
	status, body, shared := s.flights.Do(hash, func() (int, []byte) {
		select {
		case s.pool <- struct{}{}:
		default:
			s.stats.Rejected()
			return http.StatusTooManyRequests, errorBody(fmt.Sprintf(
				"all %d simulation workers are busy; retry shortly", s.opts.MaxConcurrent))
		}
		defer func() { <-s.pool }()
		s.stats.CacheMiss()
		s.stats.SimulationRun()
		st, b := run()
		if st == http.StatusOK {
			s.cache.Put(hash, b)
			s.stats.SetCacheEntries(s.cache.Len())
		}
		return st, b
	})
	if shared {
		s.stats.SingleFlightShared()
		w.Header().Set("X-Cache", "shared")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
	}
	return writeJSON(w, status, body)
}

// post guards the simulation endpoints' method and body handling.
func (s *Server) post(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody("use POST with a JSON body"))
		return nil, false
	}
	body, err := readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		return nil, false
	}
	return body, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) int {
	body, ok := s.post(w, r)
	if !ok {
		return methodOrBodyStatus(r)
	}
	req, hash, err := CanonicalSolve(body)
	if err != nil {
		return writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
	}
	return s.simulate(w, hash, func() (int, []byte) {
		resp, err := s.backend.Solve(req)
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody(err.Error())
		}
		resp.Hash = hash
		return http.StatusOK, marshalResponse(resp)
	})
}

func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) int {
	body, ok := s.post(w, r)
	if !ok {
		return methodOrBodyStatus(r)
	}
	req, hash, err := CanonicalCapacity(body)
	if err != nil {
		return writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
	}
	return s.simulate(w, hash, func() (int, []byte) {
		resp, err := s.backend.Capacity(req)
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody(err.Error())
		}
		resp.Hash = hash
		return http.StatusOK, marshalResponse(resp)
	})
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) int {
	body, ok := s.post(w, r)
	if !ok {
		return methodOrBodyStatus(r)
	}
	req, hash, err := CanonicalWhatIf(body)
	if err != nil {
		return writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
	}
	return s.simulate(w, hash, func() (int, []byte) {
		resp, err := s.backend.WhatIf(req)
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody(err.Error())
		}
		resp.Hash = hash
		return http.StatusOK, marshalResponse(resp)
	})
}

// methodOrBodyStatus recovers the status post() already wrote, for
// the wrapper's response counter.
func methodOrBodyStatus(r *http.Request) int {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed
	}
	return http.StatusBadRequest
}

// renderMethods renders the /v1/methods body once: the registry is
// immutable for the process lifetime.
func (s *Server) renderMethods() []byte {
	var resp MethodsResponse
	for _, sum := range modelcfg.MethodSummaries() {
		row := MethodRow{
			Key:         sum.Key,
			Display:     sum.Display,
			Aliases:     sum.Aliases,
			Engine:      sum.Engine,
			PlanDriven:  sum.PlanDriven,
			SingleGPU:   sum.SingleGPU,
			Distributed: sum.Distributed,
			NVMe:        sum.NVMe,
		}
		row.Decisions.Window = sum.Decisions.Window
		row.Decisions.OptPlacement = sum.Decisions.OptPlacement
		resp.Methods = append(resp.Methods, row)
	}
	return marshalResponse(resp)
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		return writeJSON(w, http.StatusMethodNotAllowed, errorBody("use GET"))
	}
	return writeJSON(w, http.StatusOK, s.methods)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		return writeJSON(w, http.StatusMethodNotAllowed, errorBody("use GET"))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	if err := s.stats.Snapshot().WriteText(w); err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}
