package plan

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func mustBuild(t *testing.T, s Spec) *Iteration {
	t.Helper()
	it, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(it); err != nil {
		t.Fatalf("base plan invalid before mutation: %v", err)
	}
	return it
}

func findOp(t *testing.T, it *Iteration, kind Kind, name string) *Op {
	t.Helper()
	for i := range it.Ops {
		if it.Ops[i].Kind == kind && it.Ops[i].Name == name {
			return &it.Ops[i]
		}
	}
	t.Fatalf("plan has no %s op named %q", kind, name)
	return nil
}

// mutation breaks one invariant of a valid planner output.
type mutation struct {
	name    string
	mutate  func(t *testing.T, it *Iteration)
	wantMsg string
}

// mutations are the negative fixtures for the validator's four checks
// (structure, buffer pairing, residency-before-use, window budget).
func mutations() []mutation {
	return []mutation{
		{
			// Structure: a forward edge is a cycle under the canonical
			// topological order.
			name: "dependency cycle",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, Prefetch, "prefetch L2")
				op.Deps = append(op.Deps, op.ID+1)
			},
			wantMsg: "dependency cycle",
		},
		{
			// Structure: an ExtResident dependency on a layer outside
			// the entry-resident set can never be satisfied.
			name: "resident dep on windowed layer",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, ComputeFP, "fp L4")
				op.Ext = append(op.Ext, ExtDep{Kind: ExtResident, Layer: 5})
			},
			wantMsg: "not entry-resident",
		},
		{
			// Buffers: dropping a release (neutralized to an inert op so
			// IDs stay sequential) leaves the layer holding buffers at
			// iteration end.
			name: "dropped release",
			mutate: func(t *testing.T, it *Iteration) {
				// Layer 5's backward release is the last time the layer
				// frees its slot; without it the layer leaks past the
				// iteration boundary.
				op := findOp(t, it, BufRelease, "release L5")
				op.Kind = OptStep
				op.Layer = -1
			},
			wantMsg: "missing release",
		},
		{
			// Buffers: acquiring a layer that is already resident.
			name: "double acquire",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, BufAcquire, "acquire L3")
				op.Layer = 0 // layer 0 is entry-resident
			},
			wantMsg: "already resident",
		},
		{
			// Buffers: releasing a layer that holds nothing here.
			name: "release without hold",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, BufRelease, "release L0")
				op.Layer = 5 // not yet acquired at that point
			},
			wantMsg: "holds no buffers",
		},
		{
			// Buffers: the declared exit set must match the held set.
			name: "exit set mismatch",
			mutate: func(t *testing.T, it *Iteration) {
				it.ExitResident = append(it.ExitResident, it.Layers-1)
			},
			wantMsg: "must exit resident",
		},
		{
			// Residency: a kernel whose prefetch edge is dropped can run
			// before its weights arrive under some event timing.
			name: "reordered prefetch",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, ComputeFP, "fp L3")
				op.Deps = nil
			},
			wantMsg: "does not happen-after",
		},
		{
			// Budget: dropping the recycle dependency lets the acquire
			// race the release it was funded by — pool exhaustion under
			// adversarial transfer timing.
			name: "dropped recycle dep",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, BufAcquire, "acquire L5")
				op.Deps = nil
			},
			wantMsg: "window budget",
		},
		{
			// Budget: a pool smaller than the entry-resident set cannot
			// even start the iteration.
			name: "budget below entry set",
			mutate: func(t *testing.T, it *Iteration) {
				it.BudgetSlots = len(it.EntryResident) - 1
			},
			wantMsg: "exceeds the",
		},
		{
			// Budget: removing the spare slot leaves the first prefetch
			// acquire unfunded.
			name: "no spare slot",
			mutate: func(t *testing.T, it *Iteration) {
				it.BudgetSlots = len(it.EntryResident)
			},
			wantMsg: "window budget",
		},
	}
}

// Each case mutates one invariant out of a valid planner output and
// must be rejected with a diagnostic naming that invariant.
func TestValidateRejectsMutations(t *testing.T) {
	for _, tc := range mutations() {
		t.Run(tc.name, func(t *testing.T) {
			it := mustBuild(t, baseSpec())
			tc.mutate(t, it)
			err := Validate(it)
			if err == nil {
				t.Fatalf("validator accepted the mutated plan")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// A broken plan reports every violation at once, not just the first.
func TestValidateAggregatesViolations(t *testing.T) {
	it := mustBuild(t, baseSpec())
	findOp(t, it, ComputeFP, "fp L3").Deps = nil           // residency
	it.ExitResident = append(it.ExitResident, it.Layers-1) // buffers
	err := Validate(it)
	if err == nil {
		t.Fatal("validator accepted a doubly broken plan")
	}
	for _, want := range []string{"does not happen-after", "must exit resident"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate diagnostic missing %q:\n%v", want, err)
		}
	}
}

// bitset over op IDs.
type bitset []uint64

func (b bitset) set(i ID)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i ID) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// oracleReach is the slow, obviously correct happens-before relation:
// the all-pairs closure over explicit dependencies plus the FIFO edge
// between consecutive ops on the same execution queue, one bitset per
// op. reach[b].has(a) must equal the validator's happensBefore(a, b).
func oracleReach(it *Iteration) []bitset {
	words := (len(it.Ops) + 63) / 64
	reach := make([]bitset, len(it.Ops))
	queueTail := make([]ID, it.Queues)
	for q := range queueTail {
		queueTail[q] = -1
	}
	for i := range it.Ops {
		op := &it.Ops[i]
		r := make(bitset, words)
		add := func(d ID) {
			r.set(d)
			r.or(reach[d])
		}
		for _, d := range op.Deps {
			add(d)
		}
		if onQueue(op) {
			if t := queueTail[op.Queue]; t >= 0 {
				add(t)
			}
			queueTail[op.Queue] = op.ID
		}
		reach[i] = r
	}
	return reach
}

// checkOracle compares the validator's happensBefore with the closure
// oracle on every ordered pair of ops. Every check is a function of
// happensBefore and the op list, so agreement here means the verdicts
// agree too. A plan failing the structure check gets no happensBefore
// queries (and has no well-defined closure), so it reports false and
// compares nothing.
func checkOracle(t testing.TB, it *Iteration) bool {
	t.Helper()
	v := &validator{it: it}
	v.checkStructure()
	if len(v.errs) > 0 {
		return false
	}
	v.computeQueuePrev()
	reach := oracleReach(it)
	for b := range it.Ops {
		for a := range it.Ops {
			if got, want := v.happensBefore(ID(a), ID(b)), reach[b].has(ID(a)); got != want {
				t.Fatalf("happensBefore(%d, %d) = %v, closure oracle says %v\nplan:\n%s", a, b, got, want, Text(it))
			}
		}
	}
	return true
}

// resized returns s at a different depth and window, stretching a
// heterogeneous LayerScale cyclically to the new depth.
func resized(s Spec, layers, window int) Spec {
	if s.LayerScale != nil {
		scale := make([]float64, layers)
		for i := range scale {
			scale[i] = s.LayerScale[i%len(s.LayerScale)]
		}
		s.LayerScale = scale
	}
	s.Layers, s.Window = layers, window
	return s
}

// The pruned backward search answers happensBefore exactly like the
// all-pairs closure on the whole feature matrix at several depths.
func TestHappensBeforeMatchesOracle(t *testing.T) {
	for name, s := range fixtureSpecs() {
		for _, size := range []struct{ layers, window int }{{6, 2}, {17, 5}, {40, 8}} {
			it, err := Build(resized(s, size.layers, size.window))
			if err != nil {
				t.Fatalf("%s/%d: %v", name, size.layers, err)
			}
			if !checkOracle(t, it) {
				t.Fatalf("%s/%d: planner output fails the structure check", name, size.layers)
			}
		}
	}
}

// The search also matches the oracle on every mutated plan the
// rejection test feeds the validator, where answers turn false.
func TestHappensBeforeMatchesOracleAfterMutation(t *testing.T) {
	compared := 0
	for _, tc := range mutations() {
		it := mustBuild(t, baseSpec())
		tc.mutate(t, it)
		if checkOracle(t, it) {
			compared++
		}
	}
	// The dependency cycle and the resident dependency on a windowed
	// layer fail the structure check, so Validate asks them nothing.
	if want := len(mutations()) - 2; compared != want {
		t.Fatalf("compared %d mutated plans with the oracle, want %d", compared, want)
	}
}

// FuzzValidate builds a fuzzed planner spec, applies at most one
// mutation (drop a dependency, add a backward dependency, or move an
// op to another queue), and requires the validator's happensBefore to
// agree with the closure oracle on every pair. Unmutated planner
// output must also validate. Run with
// `go test -run='^$' -fuzz=FuzzValidate ./internal/plan/`; the seed
// corpus lives in testdata/fuzz/FuzzValidate.
func FuzzValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, layers, window, queues, features, optFrac, mutKind uint8, target, arg uint16) {
		s := baseSpec()
		s.Layers = 1 + int(layers)%64
		s.Window = 1 + int(window)%s.Layers
		s.Queues = 1 + int(queues)%4
		s.NVMe = features&1 != 0
		s.Sync = features&2 != 0
		s.SingleOpt = features&4 != 0
		if features&8 != 0 {
			s.GradSyncFlops = 1e8
		}
		if optFrac != 0 {
			s.OptGPUFrac = float64(optFrac) / 256
			s.MomentBytes = 1 << 20
			s.GPUOptFlops = 4e8
		}
		it, err := Build(s)
		if err != nil {
			return // the planner rejects the combination; nothing to validate
		}
		if err := Validate(it); err != nil {
			t.Fatalf("planner output rejected by its own validator: %v", err)
		}
		op := &it.Ops[int(target)%len(it.Ops)]
		switch mutKind % 4 {
		case 1: // drop a dependency
			if len(op.Deps) > 0 {
				k := int(arg) % len(op.Deps)
				op.Deps = slices.Delete(slices.Clone(op.Deps), k, k+1)
			}
		case 2: // add a backward dependency
			if op.ID > 0 {
				op.Deps = append(slices.Clone(op.Deps), ID(int(arg)%int(op.ID)))
			}
		case 3: // move the op to another queue
			op.Queue = int(arg) % it.Queues
		}
		checkOracle(t, it)
		_ = Validate(it) // must not panic on the mutated plan
	})
}

// deepPlan builds and validates a window-8 planner plan at the given
// depth (about eleven ops per layer).
func deepPlan(tb testing.TB, layers int) *Iteration {
	tb.Helper()
	it, err := Build(resized(baseSpec(), layers, 8))
	if err != nil {
		tb.Fatal(err)
	}
	if err := Validate(it); err != nil {
		tb.Fatal(err)
	}
	return it
}

// Validating a 2000-layer plan must stay well below the all-pairs
// closure's cost (one ops-bit set per op, about 68 MB here): the
// search's scratch space is linear in the plan size.
func TestValidateMemoryLinear(t *testing.T) {
	it := deepPlan(t, 2000)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Validate(it); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("allocation benchmark did not run")
	}
	const limit = 4 << 20
	if got := res.AllocedBytesPerOp(); got >= limit {
		t.Fatalf("Validate on a %d-op plan allocates %d bytes per call, want under %d", len(it.Ops), got, limit)
	}
}

func BenchmarkValidate(b *testing.B) {
	for _, layers := range []int{500, 2000, 20000} {
		b.Run(fmt.Sprintf("layers=%d", layers), func(b *testing.B) {
			it := deepPlan(b, layers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Validate(it); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
