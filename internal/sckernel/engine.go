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

	// DotTile scratch, rebuilt per call and retained across calls so a
	// pooled engine allocates nothing on the serving hot path: one packed
	// DKV and one digest per DKV, a row chunk's compacted nonzero lanes,
	// and a row's PCA counts per (DKV, chunk).
	packs   []PackedDKV
	dkvKeys []uint64
	cval    []int
	cidx    []int
	counts  []int
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

// DotTile implements quant.TileDotter: out[j*r+i] = Dot(row i, DKV j)
// for the r = len(rows)/s rows and the len(dkvs)/s DKVs, bit for bit.
// Each DKV is validated and packed once per call (and digested once for
// a noisy ADC) and each row is digested once, however many DKVs it
// meets. Within each psum chunk a row's nonzero lanes are compacted once
// (every lane range-checked) and every DKV runs over that list: a zero
// DIV lane adds exactly 0 to both PCA counts in every Plane kernel, and
// the chunk seams and the row digest still cover every lane, so the
// counts, the keyed ADC draws and the estimates are Dot's. Each DKV's
// chunks then convert in order on its own keyed ADC stream. DotTile
// panics where the Dot loop would (pinned by the tile equivalence tests).
func (e *Engine) DotTile(rows, dkvs []int, s int, out []int) {
	nr, nd := len(rows)/s, len(dkvs)/s
	if nr == 0 || nd == 0 {
		return // no Dot calls: nothing to validate
	}
	ideal := e.adc.Ideal()
	for len(e.packs) < nd {
		e.packs = append(e.packs, PackedDKV{})
	}
	e.dkvKeys = grow(e.dkvKeys, nd)
	for j := range nd {
		dkv := dkvs[j*s : (j+1)*s]
		if err := e.plane.PackDKV(&e.packs[j], dkv); err != nil {
			panic(fmt.Sprintf("sckernel: packed dot failed: %v", err))
		}
		if !ideal {
			e.dkvKeys[j] = core.VecKey(dkv)
		}
	}
	n, nch := e.cfg.N, e.Chunks(s)
	scale := 1 << uint(e.cfg.Bits)
	e.counts = grow(e.counts, 2*nd*nch)
	e.cval = grow(e.cval, min(n, s))
	e.cidx = grow(e.cidx, min(n, s))
	counts, cval, cidx, l := e.counts, e.cval, e.cidx, e.plane.L
	for i := range nr {
		row := rows[i*s : (i+1)*s]
		for c := range nch {
			m := 0
			for k, ib := range row[c*n : min((c+1)*n, s)] {
				if uint(ib) > uint(l) {
					panic(fmt.Sprintf("sckernel: packed dot failed: input out of range at lane %d (i=%d)", c*n+k, ib))
				}
				if ib != 0 {
					cval[m], cidx[m] = ib, c*n+k
					m++
				}
			}
			for j := range nd {
				counts[2*(j*nch+c)], counts[2*(j*nch+c)+1] = e.plane.countsAt(cval[:m], cidx[:m], &e.packs[j])
			}
		}
		var rowKey uint64
		if !ideal {
			rowKey = core.VecKey(row)
		}
		for j := range nd {
			if !ideal {
				e.adc.Start(core.RowKey(rowKey, e.dkvKeys[j]))
			}
			est := 0
			cnt := counts[2*j*nch : 2*(j+1)*nch]
			for c := 0; c < len(cnt); c += 2 {
				cest, _, err := e.convert(cnt[c], cnt[c+1], scale)
				if err != nil {
					panic(fmt.Sprintf("sckernel: packed dot failed: %v", err))
				}
				est += cest
			}
			out[j*nr+i] = est
		}
	}
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

// grow resizes buf to n elements, reallocating only when capacity is
// short. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
