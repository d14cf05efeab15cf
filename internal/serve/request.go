// Package serve is the capacity-planning HTTP/JSON layer over the
// STRONGHOLD simulator (ROADMAP item 2): what-if queries — "does a
// 30B model fit on this box, and at what throughput under 40% PCIe
// degradation?" — served interactively instead of as one-shot CLI
// runs.
//
// The package deliberately imports no simulation code. Simulations
// are reached through the Backend interface (implemented by
// internal/serve/backend on top of the root stronghold package), so
// the engine-owning code stays outside this package and the
// concurrency here — result cache, single-flight, admission control —
// stays outside the simulator's determinism scope, the same split
// internal/bench and the host-time benchmark in hostbench/ use.
//
// Every request is decoded, canonicalized (defaults made explicit,
// method and platform names resolved to their canonical keys, fault
// plans round-tripped through the parser) and SHA-256-hashed. The
// hash keys a bounded LRU of verbatim response bodies: because the
// simulator is deterministic, a repeat query is served byte-identical
// with no second simulation run.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"stronghold/internal/fault"
	"stronghold/internal/modelcfg"
)

// Platform names accepted on the wire, mapping to their canonical
// spelling. The canonical names match the stronghold-capacity CLI.
var platformAliases = map[string]string{
	"":            "v100",
	"v100":        "v100",
	"a10":         "a10-cluster",
	"a10-cluster": "a10-cluster",
}

// canonicalPlatform resolves a platform name ("" = default v100).
func canonicalPlatform(name string) (string, error) {
	p, ok := platformAliases[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return "", fmt.Errorf("unknown platform %q (want v100 or a10-cluster)", name)
	}
	return p, nil
}

// canonicalMethod resolves a method name through the registry ("" =
// the given default key) and returns its canonical key.
func canonicalMethod(name, dflt string) (string, error) {
	if strings.TrimSpace(name) == "" {
		name = dflt
	}
	m, err := modelcfg.ParseMethod(name)
	if err != nil {
		return "", err
	}
	return modelcfg.MethodKey(m), nil
}

// SolveRequest asks /v1/solve for the §III-D working-window decision
// (and, with the method's declared decision variables, the co-opted
// optimizer placement) for one configuration.
type SolveRequest struct {
	Model    modelcfg.ConfigSpec `json:"model"`
	Platform string              `json:"platform"`
	Method   string              `json:"method"`
	// CoOpt engages the window × optimizer-placement co-optimizing
	// solver instead of the paper's fixed placement.
	CoOpt bool `json:"coopt"`
}

// Canonicalize returns the request with every field in canonical form.
// It is idempotent: Canonicalize(Canonicalize(r)) == Canonicalize(r),
// so the hash of the canonical encoding is a sound cache key.
func (r SolveRequest) Canonicalize() (SolveRequest, error) {
	var err error
	if r.Platform, err = canonicalPlatform(r.Platform); err != nil {
		return r, err
	}
	if r.Method, err = canonicalMethod(r.Method, "stronghold"); err != nil {
		return r, err
	}
	info := modelcfg.Lookup(mustMethod(r.Method))
	if info.Engine != modelcfg.EngineCore {
		return r, fmt.Errorf("solve requires a STRONGHOLD method (window solver), got %q", r.Method)
	}
	r.Model = r.Model.Canonical()
	if _, err := r.Model.Resolve(); err != nil {
		return r, err
	}
	return r, nil
}

// CapacityRequest asks /v1/capacity for the largest trainable model
// per method on a platform — the Figure 6 question as an API call.
type CapacityRequest struct {
	Platform string `json:"platform"`
	// Methods is the method set to tabulate (canonical keys or
	// aliases). Empty = every single-node method, in registry order.
	Methods []string `json:"methods,omitempty"`
}

// Canonicalize resolves the platform and the method list (aliases to
// canonical keys, duplicates collapsed, registry display order).
func (r CapacityRequest) Canonicalize() (CapacityRequest, error) {
	var err error
	if r.Platform, err = canonicalPlatform(r.Platform); err != nil {
		return r, err
	}
	if len(r.Methods) == 0 {
		r.Methods = nil
		return r, nil
	}
	set := make(map[string]bool)
	for _, name := range r.Methods {
		key, err := canonicalMethod(name, "")
		if err != nil {
			return r, err
		}
		set[key] = true
	}
	// Registry order, not request order: two requests naming the same
	// set in different orders are the same query.
	var keys []string
	for _, key := range modelcfg.MethodKeys() {
		if set[key] {
			keys = append(keys, key)
		}
	}
	r.Methods = keys
	return r, nil
}

// WhatIfRequest asks /v1/whatif for a method's throughput under a
// fault plan — clean and degraded, on the same schedule.
type WhatIfRequest struct {
	Model    modelcfg.ConfigSpec `json:"model"`
	Platform string              `json:"platform"`
	Method   string              `json:"method"`
	// Faults is the fault plan in the internal/fault grammar, e.g.
	// "h2d:slow(at=0s,dur=30s,every=60s,factor=0.6)" for a 40% PCIe
	// degradation in 30s windows.
	Faults string `json:"faults"`
	// Window pins the working window (0 = solve analytically).
	Window int `json:"window,omitempty"`
	// DisableAdapt freezes the window under faults (the ablation arm).
	DisableAdapt bool `json:"disable_adapt,omitempty"`
}

// Canonicalize resolves names and round-trips the fault plan through
// the parser: Plan.String() is a parse fixed point (pinned by the
// fault package's fuzz suite), so semantically identical plan
// spellings canonicalize to the same bytes.
func (r WhatIfRequest) Canonicalize() (WhatIfRequest, error) {
	var err error
	if r.Platform, err = canonicalPlatform(r.Platform); err != nil {
		return r, err
	}
	if r.Method, err = canonicalMethod(r.Method, "stronghold"); err != nil {
		return r, err
	}
	info := modelcfg.Lookup(mustMethod(r.Method))
	if !info.PlanDriven() {
		return r, fmt.Errorf("whatif requires a plan-driven method, got %q", r.Method)
	}
	if strings.TrimSpace(r.Faults) == "" {
		return r, fmt.Errorf("whatif requires a fault plan (use /v1/solve for clean-path questions)")
	}
	plan, err := fault.ParsePlan(r.Faults)
	if err != nil {
		return r, fmt.Errorf("fault plan: %w", err)
	}
	r.Faults = plan.String()
	if r.Window < 0 {
		return r, fmt.Errorf("negative window %d", r.Window)
	}
	r.Model = r.Model.Canonical()
	if _, err := r.Model.Resolve(); err != nil {
		return r, err
	}
	return r, nil
}

// mustMethod resolves a canonical key that canonicalMethod just
// produced; the registry lookup cannot fail at this point.
func mustMethod(key string) modelcfg.Method {
	m, err := modelcfg.ParseMethod(key)
	if err != nil {
		panic("serve: canonical method key no longer parses: " + key)
	}
	return m
}

// canonicalBody marshals a canonicalized request in its canonical
// encoding: Go's encoding/json emits struct fields in declaration
// order with no insignificant whitespace, the same determinism
// argument the plan IR's canonical text form rests on. Field order
// and whitespace in the *incoming* request are erased by the decode.
func canonicalBody(endpoint string, req any) []byte {
	body, err := json.Marshal(req)
	if err != nil {
		// All request types are plain data; Marshal cannot fail.
		panic("serve: canonical marshal: " + err.Error())
	}
	return append([]byte(endpoint+"\n"), body...)
}

// hashBody is the cache key: hex SHA-256 of the canonical encoding.
func hashBody(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// decodeStrict decodes one JSON document into dst, rejecting unknown
// fields and trailing data. Unknown fields are rejected because a
// typo'd knob silently falling back to its default would return a
// correct-looking answer to the wrong question. The value must be
// followed by end of input: Decoder.More reports false in front of a
// stray `}` or `]`, so it would pass `{"model":{}}}`.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after request body")
	}
	return nil
}

// The simulation endpoints' paths. Each is also the prefix of its
// requests' canonical encoding, so one query's hash cannot collide
// with another endpoint's.
const (
	pathSolve    = "/v1/solve"
	pathCapacity = "/v1/capacity"
	pathWhatIf   = "/v1/whatif"
)

// request is a wire request type that canonicalizes to itself.
type request[Q any] interface {
	Canonicalize() (Q, error)
}

// canonical decodes, canonicalizes and hashes one request to endpoint.
func canonical[Q request[Q]](endpoint string, body []byte) (Q, string, error) {
	var req Q
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return req, "", err
	}
	canon, err := req.Canonicalize()
	if err != nil {
		return req, "", err
	}
	return canon, hashBody(canonicalBody(endpoint, canon)), nil
}

// CanonicalSolve decodes, canonicalizes and hashes one solve request.
func CanonicalSolve(body []byte) (SolveRequest, string, error) {
	return canonical[SolveRequest](pathSolve, body)
}

// CanonicalCapacity decodes, canonicalizes and hashes one capacity
// request.
func CanonicalCapacity(body []byte) (CapacityRequest, string, error) {
	return canonical[CapacityRequest](pathCapacity, body)
}

// CanonicalWhatIf decodes, canonicalizes and hashes one what-if
// request.
func CanonicalWhatIf(body []byte) (WhatIfRequest, string, error) {
	return canonical[WhatIfRequest](pathWhatIf, body)
}
