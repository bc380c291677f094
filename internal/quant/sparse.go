package quant

import (
	"repro/internal/matmul"
)

// ZeroSkipper marks engines for which the sparsity-exploiting lowering
// is provably exact. SkipsZeros() == true is a contract with three
// clauses: (1) Dot's result is a pure function of the lanes whose DIV
// value is nonzero — a lane with div[i] == 0 contributes nothing and may
// be dropped; (2) Dot over empty vectors is 0, so a call whose every
// lane is zero may be elided entirely; (3) Dot consumes no hidden state
// (no RNG advance, no call counter), so eliding calls cannot shift any
// noise stream.
//
// ExactEngine satisfies all three trivially (plain integer arithmetic).
// The packed analytic SCONNA tier satisfies them when its ADC is ideal:
// lanes are independent (a zero-DIV lane lights no stream bits, so its
// popcount contribution is exactly zero), the ideal ADC conversion draws
// no randomness, and the PCA capacity check cannot fire on a subset of
// lanes if it did not fire on the full set. Noisy engines must NOT
// implement (or must return false from) SkipsZeros: their ADC noise
// stream advances per Dot call, so they require the dense per-(layer,
// output-channel, pixel) call sequence, which the lowering preserves for
// them unconditionally.
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
// enough for the compacted path to win: zero fraction at or above
// matmul.SparseThreshold. Below it, the per-entry index bookkeeping
// costs more than the skipped lanes save and the dense gather stays.
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

// gatherSparse builds the column-compacted integer patch structure over
// s.qx: segment (pix*inC + ic) holds pixel pix's in-bounds nonzero
// quantized activations from channel ic in (ky, kx) order — the dense
// DIV enumeration with the zero lanes dropped, so a pixel's full
// compacted DIV is the contiguous run s.sval[s.sseg[pix*inC] :
// s.sseg[(pix+1)*inC]]. s.skk holds each entry's within-row weight slot
// ic*k2 + kk, so a DKV gather is one indexed walk of the run — no
// per-channel segment bookkeeping on the hot (output channel, pixel)
// path.
func gatherSparse(pos *matmul.Pos, s *slot, inC, hw, k2 int) {
	npix := pos.NumPix()
	nseg := npix*inC + 1
	s.sseg = growInts(s.sseg, nseg)
	s.sval = s.sval[:0]
	s.skk = s.skk[:0]
	seg := 0
	s.sseg[0] = 0
	for pix := 0; pix < npix; pix++ {
		offs, kks := pos.At(pix)
		for ic := 0; ic < inC; ic++ {
			qc := s.qx[ic*hw:]
			wbase := ic * k2
			for i, o := range offs {
				if v := qc[o]; v != 0 {
					s.sval = append(s.sval, v)
					s.skk = append(s.skk, wbase+kks[i])
				}
			}
			seg++
			s.sseg[seg] = len(s.sval)
		}
	}
}

// sparseDot runs one compacted dot product: the compacted DIV entries
// of segments [lo, hi) — contiguous in s.sval — against the DKV
// gathered through their stored weight slots from wrow, with the call
// elided when the run is empty (exact by the ZeroSkipper contract). A
// standard conv reduces all of a pixel's channel segments against its
// output channel's row; a depthwise channel reduces only its own
// segment, whose stored slot ic*k2 + kk (ic == oc) already indexes the
// whole weight tensor.
func sparseDot(engine DotEngine, s *slot, wrow []int, lo, hi int) int {
	a, b := s.sseg[lo], s.sseg[hi]
	if a == b {
		return 0
	}
	s.dkv = growInts(s.dkv, b-a)
	for i, k := range s.skk[a:b] {
		s.dkv[i] = wrow[k]
	}
	return engine.Dot(s.sval[a:b], s.dkv[:b-a])
}
