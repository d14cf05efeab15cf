package serve

import (
	"strings"
	"testing"
)

// TestSolveCanonicalHash pins the decode→canonicalize→hash fixed
// point: semantically identical requests — reordered fields, noise
// whitespace, aliases, defaults spelled out or omitted — hash to the
// same cache key.
func TestSolveCanonicalHash(t *testing.T) {
	base := `{"model":{"size_billions":10},"method":"stronghold","platform":"v100"}`
	_, want, err := CanonicalSolve([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, same := range []string{
		`{"platform":"V100","method":"STRONGHOLD","model":{"size_billions":10}}`,
		"{\n  \"model\": {\"size_billions\": 10, \"hidden\": 2560, \"batch_size\": 4},\n  \"coopt\": false\n}",
		`{"model":{"size_billions":10,"model_parallel":1}}`,
	} {
		_, got, err := CanonicalSolve([]byte(same))
		if err != nil {
			t.Fatalf("%s: %v", same, err)
		}
		if got != want {
			t.Errorf("hash(%s) = %s, want %s", same, got, want)
		}
	}
	// A semantically different request must not collide.
	_, other, err := CanonicalSolve([]byte(`{"model":{"size_billions":20}}`))
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Error("different model sizes hashed identically")
	}
}

// TestSolveCanonicalIdempotent asserts Canonicalize is a fixed point.
func TestSolveCanonicalIdempotent(t *testing.T) {
	req := SolveRequest{Method: "STRONGHOLD", Platform: "A10"}
	req.Model.SizeBillions = 5
	once, err := req.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if once.Method != "stronghold" || once.Platform != "a10-cluster" {
		t.Fatalf("aliases not resolved: %+v", once)
	}
	if twice != once {
		t.Fatalf("not idempotent: %+v vs %+v", twice, once)
	}
}

func TestSolveCanonicalErrors(t *testing.T) {
	for name, body := range map[string]string{
		"bad json":        `{"model":`,
		"unknown field":   `{"modle":{"size_billions":10}}`,
		"trailing data":   `{"model":{"size_billions":10}} {}`,
		"bad platform":    `{"platform":"tpu"}`,
		"bad method":      `{"method":"flying-machine"}`,
		"baseline method": `{"method":"zero-offload"}`,
		"negative layers": `{"model":{"layers":-3}}`,
	} {
		if _, _, err := CanonicalSolve([]byte(body)); err == nil {
			t.Errorf("%s: no error for %s", name, body)
		}
	}
}

// TestCapacityCanonical pins method-list normalization: aliases
// resolve, duplicates collapse, and the list lands in registry order
// regardless of request order.
func TestCapacityCanonical(t *testing.T) {
	req := CapacityRequest{Methods: []string{"STRONGHOLD", "megatron", "stronghold", "zero-offload"}}
	canon, err := req.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"megatron-lm", "zero-offload", "stronghold"}
	if len(canon.Methods) != len(want) {
		t.Fatalf("methods = %v, want %v", canon.Methods, want)
	}
	for i := range want {
		if canon.Methods[i] != want[i] {
			t.Fatalf("methods = %v, want %v", canon.Methods, want)
		}
	}

	_, hashA, err := CanonicalCapacity([]byte(`{"methods":["stronghold","megatron"]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, hashB, err := CanonicalCapacity([]byte(`{"methods":["megatron-lm","STRONGHOLD"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if hashA != hashB {
		t.Error("same method set in different spellings hashed differently")
	}

	empty, err := CapacityRequest{Methods: []string{}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Methods != nil {
		t.Errorf("empty method list should canonicalize to nil, got %v", empty.Methods)
	}
	if _, err := (CapacityRequest{Methods: []string{"warp-drive"}}).Canonicalize(); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := (CapacityRequest{Platform: "tpu"}).Canonicalize(); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestWhatIfCanonical pins the fault-plan round-trip: different
// spellings of the same plan canonicalize to the parser's fixed-point
// form and therefore the same hash.
func TestWhatIfCanonical(t *testing.T) {
	a := `{"model":{"size_billions":5},"faults":"h2d:slow(at=0s,dur=30s,every=60s,factor=0.6)"}`
	b := `{"model":{"size_billions":5},"faults":"h2d:slow(at=0s,dur=30s,every=1m,factor=0.60)"}`
	reqA, hashA, err := CanonicalWhatIf([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	_, hashB, err := CanonicalWhatIf([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if hashA != hashB {
		t.Errorf("equivalent fault plans hashed differently:\n%s\n%s", hashA, hashB)
	}
	if !strings.Contains(reqA.Faults, "1m0s") {
		t.Errorf("plan not in canonical form: %q", reqA.Faults)
	}

	for name, body := range map[string]string{
		"no plan":         `{"model":{"size_billions":5}}`,
		"bad plan":        `{"faults":"h2d:warp(speed=9)"}`,
		"not plan-driven": `{"method":"zero-2","faults":"h2d:slow(at=0s,dur=1s,every=2s,factor=0.5)"}`,
		"negative window": `{"faults":"h2d:slow(at=0s,dur=1s,every=2s,factor=0.5)","window":-1}`,
	} {
		if _, _, err := CanonicalWhatIf([]byte(body)); err == nil {
			t.Errorf("%s: no error for %s", name, body)
		}
	}
}
