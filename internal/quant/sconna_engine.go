package quant

import (
	"fmt"

	"repro/internal/core"
)

// SconnaEngine runs dot products through the functional SCONNA core: LUT
// streams, optical AND gates, sign-steered PCA accumulation and (unless
// disabled) the 1.3%-MAPE ADC conversion. Vectors longer than the VDPE
// size decompose into chunks whose partial sums reduce digitally, exactly
// as Section II-B describes. It is the scalar, lane-by-lane reference:
// production paths run sckernel.Engine, which the equivalence tests pin
// to it bit for bit.
type SconnaEngine struct {
	vdpc *core.VDPC
	cfg  core.Config
}

// NewSconnaEngine builds an engine for the given functional configuration.
// A small M (e.g. 1-4) is sufficient: the functional result does not
// depend on how many VDPEs exist, only the performance plane cares.
func NewSconnaEngine(cfg core.Config) (*SconnaEngine, error) {
	v, err := core.NewVDPC(cfg)
	if err != nil {
		return nil, fmt.Errorf("quant: building SCONNA engine: %w", err)
	}
	return &SconnaEngine{vdpc: v, cfg: cfg}, nil
}

// Name implements DotEngine.
func (e *SconnaEngine) Name() string {
	if e.cfg.IdealADC {
		return "sconna-ideal-adc"
	}
	return "sconna"
}

// Dot implements DotEngine.
func (e *SconnaEngine) Dot(div, dkv []int) int {
	est, _, _, err := e.vdpc.DotLarge(div, dkv)
	if err != nil {
		// Operand contract violations are programming errors in the
		// quantizer, not runtime conditions.
		panic(fmt.Sprintf("quant: SCONNA dot failed: %v", err))
	}
	// The stream arithmetic carries products scaled by 2^B; DotLarge
	// already returns integer product units.
	return est
}

// Chunks returns how many psum chunks a vector of length s needs on this
// engine's VDPE size.
func (e *SconnaEngine) Chunks(s int) int {
	n := e.cfg.N
	return (s + n - 1) / n
}
