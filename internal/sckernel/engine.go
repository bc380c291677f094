package sckernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/photonics"
	"repro/internal/quant"
)

// Engine is the word-packed SC serving engine: a quant.DotEngine that
// computes exactly what quant.SconnaEngine computes — same chunk seams
// as core.VDPC.DotLarge, same per-chunk PCA capacity check, the same
// keyed core.ADC conversion — through the packed Plane kernels instead
// of the per-lane scalar walk. Every result is a pure function of the
// configuration and the operands.
//
// An Engine holds scratch (the weight packs and the converter's row
// state), so it is used by one goroutine at a time; the serving plane's
// pool and the evaluation shards already enforce that. The Plane behind
// it is immutable and shared freely.
type Engine struct {
	cfg     core.Config
	plane   *Plane
	adc     *core.ADC
	maxOnes int

	// packs is the DotRows weight-pack scratch: one packed DKV per psum
	// chunk, rebuilt per call, retained across calls so a pooled engine
	// allocates nothing on the serving hot path.
	packs []PackedDKV
}

// New builds a packed engine for the functional configuration cfg,
// enforcing the same operating-point contract as core.NewVDPE (precision
// bounds, positive geometry, DWDM grid capacity) so that any config the
// scalar engine accepts — and only those — builds a packed engine.
func New(cfg core.Config) (*Engine, error) {
	if cfg.Bits < 1 || cfg.Bits > 12 {
		return nil, fmt.Errorf("sckernel: unsupported precision B=%d", cfg.Bits)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("sckernel: VDPE size N=%d must be positive", cfg.N)
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("sckernel: VDPC size M=%d must be positive", cfg.M)
	}
	probe := photonics.NewMRR(cfg.BaseWavelengthNM, cfg.FWHMNM)
	if maxN := probe.ChannelCount(cfg.ChannelSpacingNM); cfg.N > maxN {
		return nil, fmt.Errorf("sckernel: N=%d exceeds FSR-limited channel count %d", cfg.N, maxN)
	}
	return &Engine{
		cfg:     cfg,
		plane:   PlaneFor(cfg.Bits),
		adc:     core.NewADC(cfg),
		maxOnes: cfg.N * (1 << uint(cfg.Bits)),
	}, nil
}

// Name implements quant.DotEngine.
func (e *Engine) Name() string {
	if e.cfg.IdealADC {
		return "sconna-packed-ideal-adc"
	}
	return "sconna-packed"
}

// SkipsZeros implements quant.ZeroSkipper: with an ideal ADC, dropping
// zero-DIV lanes is bit-exact. Lanes are independent (a zero activation
// lights no stream bits, so its pos/neg accumulator contribution is
// exactly zero), the ideal conversion is (pos-neg)*scale with no RNG
// draw — so per-chunk partials sum to the same total however the chunk
// seams fall on the shorter vector — and the PCA capacity check cannot
// fire on a lane subset when it could not fire on the full set (pos and
// neg only shrink, and both are bounded by N*2^B = maxOnes regardless).
// A noisy ADC breaks clause one: its error is keyed by every lane value,
// zeros included, so the engine then reports false.
func (e *Engine) SkipsZeros() bool { return e.cfg.IdealADC }

// Dot implements quant.DotEngine with the packed kernels. Operand
// contract violations are programming errors in the quantizer, matching
// quant.SconnaEngine.Dot's panic semantics.
func (e *Engine) Dot(div, dkv []int) int {
	est, _, _, err := e.DotLarge(div, dkv)
	if err != nil {
		panic(fmt.Sprintf("sckernel: packed dot failed: %v", err))
	}
	return est
}

// DotLarge mirrors core.VDPC.DotLarge on the packed plane: the vectors
// decompose into ceil(S/N) psum chunks, each converts in order on the
// row's keyed ADC stream, and the partial estimates reduce digitally.
// Returned values are bit-identical to the scalar core, chunk for chunk.
func (e *Engine) DotLarge(div, dkv []int) (est, exact, chunks int, err error) {
	if len(div) != len(dkv) {
		return 0, 0, 0, fmt.Errorf("sckernel: vector length mismatch %d vs %d", len(div), len(dkv))
	}
	e.adc.StartRow(div, dkv)
	n := e.cfg.N
	scale := 1 << uint(e.cfg.Bits)
	for off := 0; off < len(div); off += n {
		end := off + n
		if end > len(div) {
			end = len(div)
		}
		pos, neg, derr := e.plane.DotCounts(div[off:end], dkv[off:end])
		if derr != nil {
			return 0, 0, 0, derr
		}
		cest, cexact, cerr := e.convert(pos, neg, scale)
		if cerr != nil {
			return 0, 0, 0, cerr
		}
		est += cest
		exact += cexact
		chunks++
	}
	return est, exact, chunks, nil
}

// convert applies the PCA capacity check and the ADC conversion to one
// chunk's accumulator counts on the current row — the post-kernel half
// of core.VDPE.Dot.
func (e *Engine) convert(pos, neg, scale int) (est, exact int, err error) {
	if pos > e.maxOnes || neg > e.maxOnes {
		return 0, 0, fmt.Errorf("sckernel: accumulation %d/%d exceeds PCA capacity %d", pos, neg, e.maxOnes)
	}
	return e.adc.Convert(pos, neg, scale), (pos - neg) * scale, nil
}

// Chunks returns how many psum chunks a vector of length s decomposes
// into, matching quant.(*SconnaEngine).Chunks.
func (e *Engine) Chunks(s int) int {
	n := e.cfg.N
	return (s + n - 1) / n
}

// DotRows implements quant.RowDotter: one shared signed weight vector
// against every operand row, out[i] = Dot(rows[i*n:(i+1)*n], dkv) with
// n = len(dkv). The weight vector is packed once per call — magnitudes
// validated, signs lifted into lane masks, one PackedDKV per psum
// chunk — and reused across every row, which is the weight-stationary
// amortization: the serving plane applies one conv weight row to every
// dense example of a micro-batch.
//
// keys[i] is row i's core.VecKey, which the caller computes once per row
// however many weight vectors the row meets; nil keys make the engine
// digest each row itself. Either way DotRows equals the Dot loop bit for
// bit (pinned by the row equivalence tests) and panics where it would.
func (e *Engine) DotRows(rows, dkv []int, keys []uint64, out []int) {
	s := len(dkv)
	if len(out) == 0 {
		return // no rows, no calls: nothing to validate
	}
	if err := e.packDKV(dkv); err != nil {
		panic(fmt.Sprintf("sckernel: packed dot failed: %v", err))
	}
	var dkvKey uint64
	if !e.adc.Ideal() {
		dkvKey = core.VecKey(dkv)
	}
	for v := range out {
		row := rows[v*s : (v+1)*s]
		switch {
		case e.adc.Ideal():
		case keys != nil:
			e.adc.Start(core.RowKey(keys[v], dkvKey))
		default:
			e.adc.Start(core.RowKey(core.VecKey(row), dkvKey))
		}
		est, err := e.dotPacked(row)
		if err != nil {
			panic(fmt.Sprintf("sckernel: packed dot failed: %v", err))
		}
		out[v] = est
	}
}

// dotPacked is DotLarge's estimate for one DIV against the DKV packed in
// e.packs (len(div) must equal the packed length) on the row already
// started on e.adc: the same chunk seams, the same ADC draws.
func (e *Engine) dotPacked(div []int) (int, error) {
	n := e.cfg.N
	scale := 1 << uint(e.cfg.Bits)
	est := 0
	for c := 0; c*n < len(div); c++ {
		pos, neg, err := e.plane.DotPacked(div[c*n:min((c+1)*n, len(div))], &e.packs[c])
		if err != nil {
			return 0, err
		}
		cest, _, err := e.convert(pos, neg, scale)
		if err != nil {
			return 0, err
		}
		est += cest
	}
	return est, nil
}

// packDKV packs dkv into e.packs, one PackedDKV per psum chunk.
func (e *Engine) packDKV(dkv []int) error {
	n := e.cfg.N
	nchunks := e.Chunks(len(dkv))
	for len(e.packs) < nchunks {
		e.packs = append(e.packs, PackedDKV{})
	}
	for c := 0; c < nchunks; c++ {
		if err := e.plane.PackDKV(&e.packs[c], dkv[c*n:min((c+1)*n, len(dkv))]); err != nil {
			return err
		}
	}
	return nil
}

// EngineFactory returns a quant.EngineFactory building one packed
// engine per shard, configured exactly like quant.SconnaEngineFactory's
// scalar engines — so swapping the scalar factory for this one changes
// the arithmetic substrate and nothing else: every result stays
// bit-identical to the scalar plane (pinned by the serving equivalence
// tests).
func EngineFactory(cfg core.Config) quant.EngineFactory {
	return func(int) (quant.DotEngine, error) { return New(cfg) }
}
