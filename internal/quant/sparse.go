package quant

import "repro/internal/matmul"

// ZeroSkipper marks engines for which the sparsity-exploiting lowering
// is provably exact. SkipsZeros() == true is a contract with three
// clauses: (1) Dot's result is a pure function of the lanes whose DIV
// value is nonzero — a lane with div[i] == 0 contributes nothing and may
// be dropped; (2) Dot over empty vectors is 0, so a call whose every
// lane is zero may be elided entirely; (3) Dot is additive over the
// lanes: splitting a pair of operand vectors into parts and summing the
// parts' Dots gives the whole Dot.
//
// ExactEngine satisfies all three trivially (plain integer arithmetic).
// The packed analytic SCONNA tier satisfies them when its ADC is ideal:
// lanes are independent (a zero-DIV lane lights no stream bits, so its
// popcount contribution is exactly zero), the ideal ADC conversion draws
// no noise and is linear in the counts, so per-chunk partials sum to the
// same total wherever the chunk seams fall, and the PCA capacity check
// cannot fire on a subset of lanes if it did not fire on the full set.
// Noisy engines must NOT implement (or must return false from)
// SkipsZeros: their ADC error is keyed by every lane value, zeros
// included, so they require the dense operand vectors, which the
// lowering preserves for them unconditionally.
type ZeroSkipper interface {
	DotEngine
	// SkipsZeros reports that dropping zero-DIV lanes (and whole
	// all-zero calls) is bit-exact for this engine.
	SkipsZeros() bool
}

// SkipsZeros implements ZeroSkipper: integer arithmetic drops zero
// products exactly.
func (ExactEngine) SkipsZeros() bool { return true }

// skipsZeros gates the sparse path on the engine's capability.
func skipsZeros(e DotEngine) bool {
	z, ok := e.(ZeroSkipper)
	return ok && z.SkipsZeros()
}

// worthSparse reports whether the quantized activations are sparse
// enough for the compacted path: zero fraction at or above
// matmul.SparseThreshold (see there for where each path wins).
func worthSparse(qx []int) bool {
	if len(qx) == 0 {
		return false
	}
	z := 0
	for _, v := range qx {
		if v == 0 {
			z++
		}
	}
	return float64(z) >= matmul.SparseThreshold*float64(len(qx))
}
