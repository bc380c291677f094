package core

import "fmt"

// Fault injection: Section II-D cites high error tolerance as a core
// advantage of stochastic computing. This file lets tests and experiments
// inject physical faults into a VDPE — OSM lanes stuck dark (laser/ring
// failure) or stuck lit (gate jammed on resonance) — and measure the
// bounded, graceful degradation that unary value encoding guarantees,
// in contrast to positional binary encodings where one stuck line can
// flip the MSB.
type FaultKind int

// Supported fault kinds.
const (
	// StuckDark forces an OSM's output stream to all zeros.
	StuckDark FaultKind = iota
	// StuckLit forces an OSM's output stream to all ones.
	StuckLit
)

// String returns the fault mnemonic.
func (k FaultKind) String() string {
	switch k {
	case StuckDark:
		return "stuck-dark"
	case StuckLit:
		return "stuck-lit"
	}
	return "?"
}

// Fault pins one OSM lane of a VDPE.
type Fault struct {
	Lane int
	Kind FaultKind
}

// InjectFaults returns a copy-on-read view of the VDPE that applies the
// faults during Dot computations. The underlying VDPE is not modified.
type FaultyVDPE struct {
	v      *VDPE
	faults map[int]FaultKind
}

// InjectFaults wraps the VDPE with the given lane faults. Lane indices
// must be within [0, N).
func (v *VDPE) InjectFaults(faults ...Fault) (*FaultyVDPE, error) {
	fm := make(map[int]FaultKind, len(faults))
	for _, f := range faults {
		if f.Lane < 0 || f.Lane >= v.cfg.N {
			return nil, fmt.Errorf("core: fault lane %d out of range [0,%d)", f.Lane, v.cfg.N)
		}
		fm[f.Lane] = f.Kind
	}
	return &FaultyVDPE{v: v, faults: fm}, nil
}

// Dot computes the signed VDP with the injected faults applied: a
// stuck-dark lane contributes zero ones; a stuck-lit lane contributes a
// full stream of ones to its sign's accumulator. The counts convert
// through the VDPE's own keyed ADC, so with no faults Dot equals the
// VDPE's.
func (f *FaultyVDPE) Dot(div []int, dkv []int) (SignedResult, error) {
	return f.v.dot(div, dkv, f.faults)
}

// WorstCaseLaneError returns the maximum error (in integer product units)
// any single lane fault can induce: one full stream of 2^B ones worth
// 2^B product units each. For unary stochastic encoding this bound is
// independent of WHICH lane fails — the graceful-degradation property.
func (v *VDPE) WorstCaseLaneError() int {
	scale := 1 << uint(v.cfg.Bits)
	return scale * scale
}

// BinaryWorstCaseBitError returns, for contrast, the worst single-bit
// error of a conventional positional binary accumulator of the same
// dynamic range: flipping the MSB of an N*2^B*2^B-range value.
func (v *VDPE) BinaryWorstCaseBitError() int {
	rangeMax := v.cfg.N * (1 << uint(v.cfg.Bits)) * (1 << uint(v.cfg.Bits))
	msb := 1
	for msb*2 <= rangeMax {
		msb *= 2
	}
	return msb
}
