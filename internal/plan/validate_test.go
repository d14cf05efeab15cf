package plan

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stronghold/internal/sim"
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
		if it.Ops[i].Kind == kind && it.Ops[i].Name() == name {
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
				it.SetDeps(op.ID, append(it.Deps(op), op.ID+1)...)
			},
			wantMsg: "dependency cycle",
		},
		{
			// Structure: an ExtResident dependency on a layer outside
			// the entry-resident set can never be satisfied.
			name: "resident dep on windowed layer",
			mutate: func(t *testing.T, it *Iteration) {
				op := findOp(t, it, ComputeFP, "fp L4")
				it.SetExt(op.ID, append(it.Ext(op), ExtDep{Kind: ExtResident, Layer: 5})...)
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
				op.Deps = Range{}
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
				op.Deps = Range{}
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

// A join merges in-plan branches: the validator rejects one with fewer
// than two dependencies (it would only rename its lone dependency) or
// with cross-iteration facts (those gate the ops that need them).
func TestValidateRejectsBadJoins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deps    func(last ID) []ID
		ext     []ExtDep
		wantMsg string
	}{
		{"no dependencies", func(ID) []ID { return nil }, nil, "join has 0 dependencies, needs at least 2"},
		{"one dependency", func(last ID) []ID { return []ID{last} }, nil, "join has 1 dependencies, needs at least 2"},
		{"external dependency", func(last ID) []ID { return []ID{last - 1, last} },
			[]ExtDep{{Kind: ExtOptDone, Layer: 0}}, "join carries 1 external dependencies"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			it := mustBuild(t, baseSpec())
			it.hand(Op{Kind: Join, Layer: -1, Queue: -1}, tc.deps(ID(len(it.Ops)-1)), tc.ext...)
			err := Validate(it)
			if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("diagnostic %v does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// The executor keeps facts per layer and the validator proves the
// optimizer's fractions layer by layer, so every op's layer must lie
// in the plan: in [0, Layers) for an op that exports a fact, in
// [-1, Layers) for model-level work. The per-layer tables also need a
// depth of at least 0 and the resident sets in [0, Layers), and a
// fraction must be a number in (0,1].
func TestValidateRejectsOutOfRangeLayers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(t *testing.T, it *Iteration)
		wantMsg string
	}{
		{"export from a model-level op", func(t *testing.T, it *Iteration) {
			findOp(t, it, OptStep, "gpu adam resident").Export = ExtOptDone
		}, "layer -1 outside [0,6)"},
		{"fractional step past the last layer", func(t *testing.T, it *Iteration) {
			op := findOp(t, it, OptStep, "gpu adam resident")
			op.Layer, op.Frac = 6+5, 0.3
		}, "layer 11 outside [-1,6)"},
		{"resident past the last layer", func(t *testing.T, it *Iteration) {
			it.EntryResident = append(slices.Clone(it.EntryResident), 9)
			it.ExitResident = append(slices.Clone(it.ExitResident), 9)
			it.BudgetSlots++ // room for the extra layer: only its range is wrong
		}, "entry-resident layer 9 outside [0,6)"},
		{"negative depth", func(t *testing.T, it *Iteration) {
			it.Layers = -1
		}, "negative layer count -1"},
		{"NaN fraction", func(t *testing.T, it *Iteration) {
			findOp(t, it, OptStep, "gpu adam resident").Frac = math.NaN()
		}, "fraction NaN outside (0,1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			it := mustBuild(t, baseSpec())
			tc.mutate(t, it)
			err := Validate(it)
			if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("diagnostic %v does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// One broken plan gives one diagnostic text: the validator reports in
// op and layer order, never in the order of a map.
func TestValidateDiagnosticsDeterministic(t *testing.T) {
	it := mustBuild(t, baseSpec())
	it.ExitResident = nil // both window layers now miss a release
	want := Validate(it)
	if want == nil {
		t.Fatal("validator accepted a plan that leaks its window")
	}
	for range 50 {
		if got := Validate(it); got == nil || got.Error() != want.Error() {
			t.Fatalf("diagnostic changed between calls:\n%v\nthen:\n%v", want, got)
		}
	}
}

// A broken plan reports every violation at once, not just the first.
func TestValidateAggregatesViolations(t *testing.T) {
	it := mustBuild(t, baseSpec())
	findOp(t, it, ComputeFP, "fp L3").Deps = Range{}       // residency
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
		for _, d := range it.Deps(op) {
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

// The fuzzer's oracle check on a plan of more than oracleAllPairs ops
// compares every pair of ops less than oracleNear IDs apart, plus
// oracleFar seeded pairs farther apart for each op: asking about all
// O(ops²) pairs would spend the fuzzer's time on a few deep plans.
const (
	oracleAllPairs = 256
	oracleNear     = 64
	oracleFar      = 16
)

// checkOracle compares the validator's happensBefore with the closure
// oracle: on every ordered pair of ops when all is set or the plan is
// small, else on the sample above. Every check is a function of
// happensBefore and the op list, so agreement here means the verdicts
// agree too. It builds its validator as Prepare does. A plan failing
// the structure check gets no happensBefore queries (and has no
// well-defined closure), so it reports false and compares nothing.
func checkOracle(t testing.TB, it *Iteration, all bool) bool {
	t.Helper()
	v := &validator{it: it}
	v.checkStructure()
	if len(v.errs) > 0 {
		return false
	}
	v.c, v.seen = Compile(&it.Graph), make([]uint32, len(it.Ops))
	reach := oracleReach(it)
	check := func(a, b int) {
		if got, want := v.happensBefore(ID(a), ID(b)), reach[b].has(ID(a)); got != want {
			t.Fatalf("happensBefore(%d, %d) = %v, closure oracle says %v\nplan:\n%s", a, b, got, want, Text(it))
		}
	}
	n := len(it.Ops)
	rng := rand.New(rand.NewPCG(uint64(n), 0))
	for b := 0; b < n; b++ {
		lo, hi := 0, n
		if !all && n > oracleAllPairs {
			lo, hi = max(b-oracleNear+1, 0), min(b+oracleNear, n)
		}
		for a := lo; a < hi; a++ {
			check(a, b)
		}
		// The far IDs, [0, lo) and [hi, n), are drawn from as one range.
		for far, k := n-(hi-lo), 0; far > 0 && k < oracleFar; k++ {
			a := rng.IntN(far)
			if a >= lo {
				a += hi - lo
			}
			check(a, b)
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
			if !checkOracle(t, it, true) {
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
		if checkOracle(t, it, true) {
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
// mutation (drop a dependency, add a backward dependency, move an op to
// another queue or layer, make it export a fact, or move a resident
// layer), and requires the validator's happensBefore to agree with the
// closure oracle on every pair of a small plan and on checkOracle's
// sample of a large one. Unmutated planner output must also validate.
// Validate must give Prepare's verdict, and a plan Prepare
// accepts must come with the program Compile lowers it to, which must
// execute without a panic. Run with
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
		switch mutKind % 7 {
		case 1: // drop a dependency
			if deps := it.Deps(op); len(deps) > 0 {
				k := int(arg) % len(deps)
				it.SetDeps(op.ID, slices.Delete(slices.Clone(deps), k, k+1)...)
			}
		case 2: // add a backward dependency
			if op.ID > 0 {
				it.SetDeps(op.ID, append(it.Deps(op), ID(int(arg)%int(op.ID)))...)
			}
		case 3: // move the op to another queue
			op.Queue = int16(int(arg) % it.Queues)
		case 4: // move the op to another layer, possibly out of range
			op.Layer = int32(int(arg)%(it.Layers+8) - 4)
		case 5: // make the op publish a fact, or stop publishing one
			op.Export = ExtKind(int(arg) % (extKinds + 1))
		case 6: // move an entry (even target) or exit resident layer, possibly out of range
			set := &it.EntryResident
			if target%2 == 1 {
				set = &it.ExitResident
			}
			if len(*set) > 0 {
				*set = slices.Clone(*set)
				(*set)[int(target/2)%len(*set)] = int(arg)%(it.Layers+8) - 4
			}
		}
		checkOracle(t, it, false)
		c, err := Prepare(it)
		if verr := Validate(it); fmt.Sprint(verr) != fmt.Sprint(err) {
			t.Fatalf("Validate says %v, Prepare says %v", verr, err)
		}
		if err == nil {
			if want := Compile(&it.Graph); !reflect.DeepEqual(c, want) {
				t.Fatalf("Prepare's program differs from Compile's")
			}
			eng := sim.NewEngine()
			env := &fifoEnv{eng: eng, res: [2]*sim.Resource{sim.NewResource(eng, "a"), sim.NewResource(eng, "b")}}
			env.run = Execute(c, eng, &State{}, env)
			eng.Run()
		}
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
