package serve

import (
	"encoding/json"
	"errors"
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
	// a one-second Retry-After hint rather than queued: a
	// capacity-planning query is interactive, and an honest "try
	// again in a second" beats an unbounded queue.
	MaxConcurrent int
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 4
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
	stats   *metrics.ServeStats
	cache   *resultCache
	flights *flightGroup
	pool    chan struct{} // admission semaphore: one token per running simulation
	mux     *http.ServeMux

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	methods  []byte // /v1/methods body: the registry is immutable for the process lifetime
}

// New builds a Server over the backend.
func New(b Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		backend: b,
		stats:   metrics.NewServeStats(),
		cache:   newResultCache(opts.CacheSize),
		flights: newFlightGroup(),
		pool:    make(chan struct{}, opts.MaxConcurrent),
		mux:     http.NewServeMux(),
		methods: marshalResponse(MethodsResponse{Methods: modelcfg.MethodSummaries()}),
	}
	route(s, pathSolve, Backend.Solve)
	route(s, pathCapacity, Backend.Capacity)
	route(s, pathWhatIf, Backend.WhatIf)
	s.mux.HandleFunc("/v1/methods", s.wrap(s.handleMethods))
	s.mux.HandleFunc("/metrics", s.wrap(s.handleMetrics))
	return s
}

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

// readPost reads a simulation request's bounded POST body. On a wrong
// verb or an unreadable body it writes the error response and returns
// its status; otherwise the status is 0.
func readPost(w http.ResponseWriter, r *http.Request) ([]byte, int) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return nil, writeJSON(w, http.StatusMethodNotAllowed, errorBody("use POST with a JSON body"))
	}
	defer func() { _ = r.Body.Close() }()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return nil, writeJSON(w, http.StatusRequestEntityTooLarge, errorBody(fmt.Sprintf(
			"request body exceeds the %d MiB limit", maxRequestBytes>>20)))
	case err != nil:
		return nil, writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
	}
	return body, 0
}

// route registers path as a simulation endpoint answered by the
// Backend method call. Every simulation request takes this one path:
// read the bounded body, decode strictly, canonicalize and hash; then
// the cache lookup by hash, single-flight dedup of concurrent
// identical misses, admission control on the leader, the backend call,
// and the cache fill on success.
func route[Q request[Q], R response](s *Server, path string, call func(Backend, Q) (R, error)) {
	s.mux.HandleFunc(path, s.wrap(func(w http.ResponseWriter, r *http.Request) int {
		body, status := readPost(w, r)
		if status != 0 {
			return status
		}
		req, hash, err := canonical[Q](path, body)
		if err != nil {
			return writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		}
		if out, ok := s.cache.Get(hash); ok {
			s.stats.CacheHit()
			w.Header().Set("X-Cache", "hit")
			return writeJSON(w, http.StatusOK, out)
		}
		status, out, shared := s.flights.Do(hash, func() (int, []byte) {
			select {
			case s.pool <- struct{}{}:
			default:
				s.stats.Rejected()
				return http.StatusTooManyRequests, errorBody(fmt.Sprintf(
					"all %d simulation workers are busy; retry shortly", cap(s.pool)))
			}
			defer func() { <-s.pool }()
			s.stats.CacheMiss()
			s.stats.SimulationRun()
			resp, err := call(s.backend, req)
			if err != nil {
				return http.StatusUnprocessableEntity, errorBody(err.Error())
			}
			out := marshalResponse(resp.withHash(hash))
			s.cache.Put(hash, out)
			s.stats.SetCacheEntries(s.cache.Len())
			return http.StatusOK, out
		})
		if shared {
			s.stats.SingleFlightShared()
			w.Header().Set("X-Cache", "shared")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		return writeJSON(w, status, out)
	}))
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
