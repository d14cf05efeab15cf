package baselines

// Test-only exports for the external golden-run test, which imports
// internal/expt (and so cannot live in package baselines).
var (
	GoldenConfig = goldenConfig
	V100Model    = v100Model
	Faulted      = faultedEngine
	UpdateGolden = update
)
