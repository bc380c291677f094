package sckernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/photonics"
	"repro/internal/quant"
)

// Engine is the SC serving engine: a quant.DotEngine and
// quant.TileDotter that computes exactly what quant.SconnaEngine
// computes — same chunk seams as core.VDPC.DotLarge, same per-chunk PCA
// capacity check, the same keyed core.ADC conversion — with the
// closed-form lane count ib*wb >> B instead of the per-lane stream walk.
// Every result is a pure function of the configuration and the operands.
//
// An Engine holds scratch (DotTile's packed operands and the converter's
// row state), so it is used by one goroutine at a time; the serving
// plane's pool and the evaluation shards already enforce that.
type Engine struct {
	cfg     core.Config
	adc     *core.ADC
	maxOnes int

	// DotTile's field layout, fixed by (B, N) in New: fields rows per
	// uint64 in fields of width bits; after a shift by B, mask keeps
	// each field's product floor, and cmask reads one field's count.
	fields      int
	width       uint
	mask, cmask uint64

	// DotTile scratch, regrown per call and retained across calls so a
	// pooled engine allocates nothing on the serving hot path (a few
	// words per operand lane): the DKV lanes and mixed digests, the
	// packed rows and their digests, and one chunk's field sums per DKV
	// of the pair in flight.
	lanes   []lane
	dkvMix  []uint64
	xs      []uint64
	rowKeys []uint64
	sums    []fieldSums
}

// New builds a packed engine for the functional configuration cfg,
// enforcing the same operating-point contract as core.NewVDPE (precision
// bounds, positive geometry, DWDM grid capacity, the converter's range)
// so that any config the scalar engine accepts — and only those —
// builds a packed engine.
func New(cfg core.Config) (*Engine, error) {
	if cfg.Bits < 1 || cfg.Bits > maxBits {
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
	adc, err := core.NewADC(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		adc:     adc,
		maxOnes: cfg.N * (1 << uint(cfg.Bits)),
		fields:  1,
		width:   64,
	}
	if !weightsRateExact(cfg.Bits) {
		return nil, fmt.Errorf("sckernel: B=%d weight streams are not rate-exact", cfg.Bits)
	}
	// The widest packing whose fields hold a lane product (2B+1 bits, so
	// its floor survives the shift clear of the next field's low bits)
	// and a psum chunk's count sum (at most N*2^B).
	for _, lay := range []struct {
		fields int
		width  uint
	}{{3, 21}, {2, 32}} {
		if 2*cfg.Bits+1 <= int(lay.width) && cfg.N < 1<<lay.width>>cfg.Bits {
			e.fields, e.width = lay.fields, lay.width
			break
		}
	}
	e.cmask = ^uint64(0) >> (64 - e.width)
	for r := range e.fields {
		e.mask |= e.cmask >> uint(cfg.Bits) << (uint(r) * e.width)
	}
	return e, nil
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
// exactly zero), the ideal conversion is (pos-neg)*scale with no
// noise — so per-chunk partials sum to the same total however the chunk
// seams fall on the shorter vector — and the PCA capacity check cannot
// fire on a lane subset when it could not fire on the full set (pos and
// neg only shrink, and both are bounded by N*2^B = maxOnes regardless).
// A noisy ADC breaks clause one: its error is keyed by every lane value,
// zeros included, so the engine then reports false.
func (e *Engine) SkipsZeros() bool { return e.cfg.IdealADC }

// Dot implements quant.DotEngine with the closed-form count. Operand
// contract violations are programming errors in the quantizer, matching
// quant.SconnaEngine.Dot's panic semantics.
func (e *Engine) Dot(div, dkv []int) int {
	est, _, _, err := e.DotLarge(div, dkv)
	if err != nil {
		panic(fmt.Sprintf("sckernel: packed dot failed: %v", err))
	}
	return est
}

// DotLarge mirrors core.VDPC.DotLarge: the vectors decompose into
// ceil(S/N) psum chunks, each counted by dotCounts and converted in
// order on the row's keyed ADC noise words, and the partial estimates
// reduce digitally. Returned values are bit-identical to the scalar
// core, chunk for chunk.
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
		pos, neg, derr := dotCounts(div[off:end], dkv[off:end], e.cfg.Bits)
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
//
// It runs the closed-form count (a lane's count is ib*wb >> B) as one
// register-tiled kernel over packed operand rows. Each DKV is
// range-checked once into magnitude and sign-mask lanes (and digested
// once for a noisy ADC), and each row is range-checked and digested
// once. The rows are laid out lane-major, e.fields rows per uint64 in
// fields of e.width bits, so one multiply by a weight magnitude yields
// every packed row's product; a shift by B and a mask keep each field's
// floor, and the weight's sign mask adds it to the negative sum as well
// as the total. A field holds a product's 2B+1 bits and a psum chunk's
// count sum (at most N*2^B), so no field carries into the next and the
// counts are exactly Dot's, chunk seams included. Each (row, DKV) then
// converts its chunks in order on its own keyed ADC row. DotTile
// panics where the Dot loop would (pinned by the tile equivalence
// tests and FuzzDotTile).
func (e *Engine) DotTile(rows, dkvs []int, s int, out []int) {
	nr, nd := len(rows)/s, len(dkvs)/s
	if nr == 0 || nd == 0 {
		return // no Dot calls: nothing to validate
	}
	ideal := e.adc.Ideal()
	l := 1 << uint(e.cfg.Bits)
	e.lanes = grow(e.lanes, nd*s)
	e.dkvMix = grow(e.dkvMix, nd)
	for j := range nd {
		dkv := dkvs[j*s : (j+1)*s]
		w := e.lanes[j*s : (j+1)*s]
		for k, wb := range dkv {
			sg := wb >> signShift
			if m := (wb ^ sg) - sg; uint(m) <= uint(l) {
				w[k] = lane{mag: uint64(m), neg: uint64(sg)}
			} else {
				panic(fmt.Sprintf("sckernel: packed dot failed: weight magnitude out of range at lane %d (w=%d)", k, wb))
			}
		}
		if !ideal {
			// core.RowKey(rowKey, dkvKey) = rowKey ^ Mix64(dkvKey): the
			// DKV half is mixed once here, not once per row.
			e.dkvMix[j] = digest.Mix64(core.VecKey(dkv))
		}
	}
	f, width, shift := e.fields, e.width, uint(e.cfg.Bits)
	nt := (nr + f - 1) / f
	e.xs = grow(e.xs, nt*s)
	e.rowKeys = grow(e.rowKeys, nr)
	for t := range nt {
		x := e.xs[t*s : (t+1)*s]
		clear(x)
		for r := range min(f, nr-t*f) {
			i := t*f + r
			row := rows[i*s : (i+1)*s]
			x, sh := x[:len(row)], uint(r)*width&63
			for k, ib := range row {
				if uint(ib) > uint(l) {
					panic(fmt.Sprintf("sckernel: packed dot failed: input out of range at lane %d (i=%d)", k, ib))
				}
				x[k] |= uint64(ib) << sh
			}
			if !ideal {
				e.rowKeys[i] = core.VecKey(row)
			}
		}
	}
	n, nch := e.cfg.N, e.Chunks(s)
	e.sums = grow(e.sums, 2*nch)
	for t := range nt {
		x := e.xs[t*s : (t+1)*s]
		r0, rn := t*f, min(f, nr-t*f)
		j := 0
		for ; j+2 <= nd; j += 2 {
			w0, w1 := e.lanes[j*s:(j+1)*s], e.lanes[(j+1)*s:(j+2)*s]
			for c := range nch {
				lo, hi := c*n, min((c+1)*n, s)
				e.sums[2*c], e.sums[2*c+1] = tile2(x[lo:hi], w0[lo:hi], w1[lo:hi], shift, e.mask)
			}
			e.convertTile(out, nr, j, 0, r0, rn)
			e.convertTile(out, nr, j+1, 1, r0, rn)
		}
		for ; j < nd; j++ {
			w := e.lanes[j*s : (j+1)*s]
			for c := range nch {
				lo, hi := c*n, min((c+1)*n, s)
				e.sums[2*c] = tile1(x[lo:hi], w[lo:hi], shift, e.mask)
			}
			e.convertTile(out, nr, j, 0, r0, rn)
		}
	}
}

// convertTile writes DKV j's results for the rn packed rows from row
// r0, reading its chunk sums at e.sums[h], e.sums[h+2], ...: each row's
// counts come out of its field and convert in chunk order on the row's
// keyed ADC noise words.
func (e *Engine) convertTile(out []int, nr, j, h, r0, rn int) {
	scale := 1 << uint(e.cfg.Bits)
	ideal, mix := e.adc.Ideal(), e.dkvMix[j]
	sums, cmask := e.sums, e.cmask
	out = out[j*nr+r0 : j*nr+r0+rn]
	for r := range out {
		if !ideal {
			e.adc.Start(e.rowKeys[r0+r] ^ mix)
		}
		// A chunk's counts are at most min(N, S)*2^B, inside the PCA
		// capacity, so convert's capacity check cannot fire here.
		sh, est := uint(r)*e.width&63, 0
		for c := h; c < len(sums); c += 2 {
			neg := int(sums[c].neg >> sh & cmask)
			est += e.adc.Convert(int(sums[c].total>>sh&cmask)-neg, neg, scale)
		}
		out[r] = est
	}
}

// lane is one DKV lane in DotTile's form: the weight magnitude and its
// sign mask (all ones for a negative weight).
type lane struct{ mag, neg uint64 }

// fieldSums holds one psum chunk's packed counts for one DKV: in each
// row's field, the sum of the lane floors and the part of it steered to
// the negative accumulator.
type fieldSums struct{ total, neg uint64 }

// tile1 is the micro-kernel over one psum chunk: packed rows x against
// one DKV's lanes w.
func tile1(x []uint64, w []lane, shift uint, mask uint64) fieldSums {
	w = w[:len(x)]
	var a fieldSums
	for k, v := range x {
		p := v * w[k].mag >> (shift & 63) & mask
		a.total += p
		a.neg += p & w[k].neg
	}
	return a
}

// tile2 is tile1 against two DKVs at once, so each packed row word is
// loaded once for both. It stays out of line: inlined into DotTile, its
// loop shared DotTile's registers and spilled.
//
//go:noinline
func tile2(x []uint64, w0, w1 []lane, shift uint, mask uint64) (a, b fieldSums) {
	w0, w1 = w0[:len(x)], w1[:len(x)]
	for k, v := range x {
		p := v * w0[k].mag >> (shift & 63) & mask
		q := v * w1[k].mag >> (shift & 63) & mask
		a.total += p
		a.neg += p & w0[k].neg
		b.total += q
		b.neg += q & w1[k].neg
	}
	return a, b
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
