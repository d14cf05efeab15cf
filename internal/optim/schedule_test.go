package optim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantSchedule(t *testing.T) {
	c := Constant{Rate: 0.01}
	if c.LR(0) != 0.01 || c.LR(1_000_000) != 0.01 {
		t.Fatal("constant schedule must not vary")
	}
}

func TestWarmupCosineShape(t *testing.T) {
	s := WarmupCosine{Base: 1, MinRate: 0.1, WarmupSteps: 10, TotalSteps: 110}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Warmup is increasing and reaches Base.
	for i := 1; i < 10; i++ {
		if s.LR(i) <= s.LR(i-1) {
			t.Fatalf("warmup not increasing at %d", i)
		}
	}
	if s.LR(9) != 1 {
		t.Fatalf("end of warmup %v, want base", s.LR(9))
	}
	// Decay is decreasing.
	for i := 11; i < 110; i++ {
		if s.LR(i) >= s.LR(i-1) {
			t.Fatalf("decay not decreasing at %d", i)
		}
	}
	// Midpoint of the cosine is the average of base and min.
	mid := s.LR(60)
	if math.Abs(mid-0.55) > 0.01 {
		t.Fatalf("midpoint %v, want ~0.55", mid)
	}
	// Clamps at MinRate.
	if s.LR(110) != 0.1 || s.LR(10_000) != 0.1 {
		t.Fatal("must clamp at MinRate")
	}
	if s.LR(-5) != s.LR(0) {
		t.Fatal("negative steps clamp to 0")
	}
}

func TestWarmupCosineValidate(t *testing.T) {
	bad := []WarmupCosine{
		{Base: 0, TotalSteps: 10},
		{Base: 1, MinRate: 2, TotalSteps: 10},
		{Base: 1, WarmupSteps: 10, TotalSteps: 10},
		{Base: 1, WarmupSteps: -1, TotalSteps: 10},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestWarmupLinearShape(t *testing.T) {
	s := WarmupLinear{Base: 1, MinRate: 0, WarmupSteps: 5, TotalSteps: 105}
	if s.LR(4) != 1 {
		t.Fatalf("end of warmup %v", s.LR(4))
	}
	mid := s.LR(55)
	if math.Abs(mid-0.5) > 0.01 {
		t.Fatalf("linear midpoint %v, want 0.5", mid)
	}
	if s.LR(105) != 0 || s.LR(-1) != s.LR(0) {
		t.Fatal("clamping wrong")
	}
}

// Property: both schedules stay within [MinRate, Base] after warmup and
// within [0, Base] always.
func TestPropertyScheduleBounds(t *testing.T) {
	f := func(stepRaw uint16) bool {
		step := int(stepRaw)
		c := WarmupCosine{Base: 1, MinRate: 0.05, WarmupSteps: 100, TotalSteps: 1000}
		l := WarmupLinear{Base: 1, MinRate: 0.05, WarmupSteps: 100, TotalSteps: 1000}
		for _, lr := range []float64{c.LR(step), l.LR(step)} {
			if lr < 0 || lr > 1+1e-12 {
				return false
			}
			if step >= 100 && lr < 0.05-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
