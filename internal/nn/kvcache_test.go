package nn

import (
	"testing"

	"stronghold/internal/autograd"
	"stronghold/internal/tensor"
)

func kvModel(t *testing.T) *GPT {
	t.Helper()
	g, err := NewGPT(GPTConfig{Vocab: 29, MaxSeq: 32, Hidden: 16, Heads: 2, Layers: 3, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateFastMatchesGenerateGreedy(t *testing.T) {
	g := kvModel(t)
	prompt := []int{1, 7, 3, 14}
	slow, err := g.Generate(prompt, 10, 0, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := g.GenerateFast(prompt, 10, 0, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("token %d: cached %d vs full %d (slow=%v fast=%v)", i, fast[i], slow[i], slow, fast)
		}
	}
}

func TestGenerateFastSampledMatchesWithSameRNG(t *testing.T) {
	// With temperature sampling both paths draw from the same logits
	// distribution; identical RNG streams must produce identical
	// tokens because the logits match.
	g := kvModel(t)
	prompt := []int{2, 4, 6}
	slow, err := g.Generate(prompt, 8, 0.9, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := g.GenerateFast(prompt, 8, 0.9, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("sampled divergence at %d: %v vs %v", i, slow, fast)
		}
	}
}

func TestGenerateFastValidation(t *testing.T) {
	g := kvModel(t)
	rng := tensor.NewRNG(1)
	if _, err := g.GenerateFast(nil, 3, 0, rng); err == nil {
		t.Fatal("empty prompt must error")
	}
	if _, err := g.GenerateFast([]int{99}, 3, 0, rng); err == nil {
		t.Fatal("out-of-vocab must error")
	}
	if _, err := g.GenerateFast([]int{1}, -1, 0, rng); err == nil {
		t.Fatal("negative length must error")
	}
	if _, err := g.GenerateFast([]int{1, 2}, 31, 0, rng); err == nil {
		t.Fatal("beyond-context generation must error in cached mode")
	}
}

func TestGenerateFastRejectsNonBlockStacks(t *testing.T) {
	g := kvModel(t)
	lin := NewLinear("lin", 16, 16, tensor.NewRNG(2))
	g.Blocks = autograd.NewSequential(append(g.Blocks.Layers(), lin)...)
	if _, err := g.GenerateFast([]int{1, 2}, 3, 0, tensor.NewRNG(1)); err == nil {
		t.Fatal("stacks with a non-block layer must be rejected by the cached path")
	}
}

func TestGenerateGreedyAndSampled(t *testing.T) {
	g, err := NewGPT(GPTConfig{Vocab: 23, MaxSeq: 8, Hidden: 8, Heads: 2, Layers: 1, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	out, err := g.Generate([]int{1, 2, 3}, 5, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("generated %d tokens", len(out))
	}
	for _, id := range out {
		if id < 0 || id >= 23 {
			t.Fatalf("token %d out of vocab", id)
		}
	}
	// Greedy generation is deterministic.
	out2, _ := g.Generate([]int{1, 2, 3}, 5, 0, tensor.NewRNG(99))
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("greedy decoding must be deterministic")
		}
	}
	// Sampling with temperature produces valid tokens and respects the
	// context window (prompt longer than MaxSeq).
	long := make([]int, 20)
	sampled, err := g.Generate(long, 4, 0.8, rng)
	if err != nil || len(sampled) != 4 {
		t.Fatalf("sampled generation failed: %v", err)
	}
}

func TestGenerateValidation(t *testing.T) {
	g, _ := NewGPT(GPTConfig{Vocab: 23, MaxSeq: 8, Hidden: 8, Heads: 2, Layers: 1, Seed: 67})
	rng := tensor.NewRNG(1)
	if _, err := g.Generate(nil, 3, 0, rng); err == nil {
		t.Fatal("empty prompt must error")
	}
	if _, err := g.Generate([]int{50}, 3, 0, rng); err == nil {
		t.Fatal("out-of-vocab prompt must error")
	}
	if _, err := g.Generate([]int{1}, -1, 0, rng); err == nil {
		t.Fatal("negative length must error")
	}
}

func BenchmarkGenerateFull(b *testing.B) {
	b.ReportAllocs()
	g, _ := NewGPT(GPTConfig{Vocab: 64, MaxSeq: 128, Hidden: 32, Heads: 4, Layers: 4, Seed: 9})
	prompt := []int{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(prompt, 32, 0, tensor.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateKVCached(b *testing.B) {
	b.ReportAllocs()
	g, _ := NewGPT(GPTConfig{Vocab: 64, MaxSeq: 128, Hidden: 32, Heads: 4, Layers: 4, Seed: 9})
	prompt := []int{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GenerateFast(prompt, 32, 0, tensor.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
	}
}
