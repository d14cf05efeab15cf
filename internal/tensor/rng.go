package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64)
// used for reproducible parameter initialization and synthetic data.
// It is not safe for concurrent use; create one per goroutine.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	// Draw u1 in (0,1] to avoid log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Randn returns a tensor of the given shape with N(0, std²) entries.
func Randn(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64() * std)
	}
	return t
}
