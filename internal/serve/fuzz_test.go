package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequestCanonical fuzzes the request decoders of all three
// simulation endpoints and asserts decode→canonicalize→hash is a
// fixed point: re-encoding a canonical request and pushing it back
// through the pipeline must reproduce the same hash. Together with
// the seed corpus (reordered fields, aliases, odd whitespace,
// explicit defaults) this pins the cache-key soundness argument: any
// two spellings of the same query share one cache entry, and
// canonicalization can never oscillate.
func FuzzRequestCanonical(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"model":{"size_billions":10}}`),
		[]byte(`{"platform":"V100","method":"STRONGHOLD","model":{"batch_size":4,"size_billions":10}}`),
		[]byte("{\n\t\"model\": {\"layers\": 54, \"hidden\": 2560},\n\t\"coopt\": true\n}"),
		[]byte(`{"methods":["megatron","stronghold","megatron-lm"]}`),
		[]byte(`{"platform":"a10"}`),
		[]byte(`{"model":{"size_billions":5},"faults":"h2d:slow(at=0s,dur=30s,every=1m,factor=0.6)"}`),
		[]byte(`{"faults":"seed=7;h2d:black(at=1s,dur=2s,every=10s)","model":{"layers":10},"window":2}`),
		[]byte(`{}`),
		[]byte(`{"model":{"size_billions":1e308}}`),
		[]byte(`{"model":{"layers":-1}}`),
		[]byte(`{"model":{"size_billions":4}}}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOne(t, data, "/v1/solve", func(b []byte) (any, string, error) {
			req, hash, err := CanonicalSolve(b)
			return req, hash, err
		})
		fuzzOne(t, data, "/v1/capacity", func(b []byte) (any, string, error) {
			req, hash, err := CanonicalCapacity(b)
			return req, hash, err
		})
		fuzzOne(t, data, "/v1/whatif", func(b []byte) (any, string, error) {
			req, hash, err := CanonicalWhatIf(b)
			return req, hash, err
		})
	})
}

// fuzzOne checks one endpoint's canonicalization pipeline on one
// input: if the input is accepted, it must be exactly one JSON value,
// and its canonical form must (a) re-encode deterministically, (b) be
// accepted again, and (c) hash to the same key — the fixed point.
func fuzzOne(t *testing.T, data []byte, endpoint string, canonicalize func([]byte) (any, string, error)) {
	t.Helper()
	req, hash, err := canonicalize(data)
	if err != nil {
		return // rejected input: nothing to pin
	}
	if !json.Valid(data) {
		t.Fatalf("%s: accepted a body that is not exactly one JSON value: %q", endpoint, data)
	}
	if len(hash) != 64 {
		t.Fatalf("%s: hash %q is not hex SHA-256", endpoint, hash)
	}
	reencoded := canonicalBody(endpoint, req)[len(endpoint)+1:]
	req2, hash2, err := canonicalize(reencoded)
	if err != nil {
		t.Fatalf("%s: canonical form rejected on re-decode: %v\ninput: %s\ncanonical: %s",
			endpoint, err, data, reencoded)
	}
	if hash2 != hash {
		t.Fatalf("%s: hash not a fixed point: %s -> %s\ninput: %s\ncanonical: %s",
			endpoint, hash, hash2, data, reencoded)
	}
	if !bytes.Equal(canonicalBody(endpoint, req2), canonicalBody(endpoint, req)) {
		t.Fatalf("%s: canonical encoding not a fixed point\ninput: %s", endpoint, data)
	}
}
