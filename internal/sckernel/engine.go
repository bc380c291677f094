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
// An Engine holds DotTile's scratch, so it is used by one goroutine at a
// time; the serving plane's pool and the evaluation shards already
// enforce that.
type Engine struct {
	cfg     core.Config
	adc     *core.ADC
	maxOnes int

	// The portable kernel's field layout, fixed by (B, N) in New:
	// fields rows per uint64 in fields of width bits; after a shift by
	// B, mask keeps each field's product floor, and cmask reads one
	// field's count.
	fields      int
	width       uint
	mask, cmask uint64

	// DotTile scratch, regrown per call and retained across calls so a
	// pooled engine allocates nothing on the serving hot path (a few
	// words per operand lane): the DKV lanes and mixed digests, the row
	// digests, the packed rows of either kernel, and one row group's
	// chunk counts. Every call writes these slice headers and the
	// buffers behind them, so the headers sit between two cache-line
	// pads and grow keeps each buffer a line clear of its neighbours:
	// engines a pool builds one after another never write to one line
	// from two cores.
	_       [cacheLine]byte
	lanes   []lane
	dkvMix  []uint64
	rowKeys []uint64
	xs      []uint64    // portable kernel: e.fields rows per word
	x16     []uint64    // SIMD kernel: 16 uint16 rows per lane
	sums    []fieldSums // portable kernel: per chunk, a DKV pair's sums
	counts  []uint64    // portable kernel: sums unpacked per row
	sums16  []uint16    // SIMD kernel: per chunk, a DKV pair's counts
	_       [cacheLine]byte
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
	word := e.adc.OperandWord(div, dkv)
	n := e.cfg.N
	scale := 1 << uint(e.cfg.Bits)
	for off := 0; off < len(div); off += n {
		end := min(off+n, len(div))
		pos, neg, derr := dotCounts(div[off:end], dkv[off:end], e.cfg.Bits)
		if derr != nil {
			return 0, 0, 0, derr
		}
		if pos > e.maxOnes || neg > e.maxOnes {
			return 0, 0, 0, fmt.Errorf("sckernel: accumulation %d/%d exceeds PCA capacity %d", pos, neg, e.maxOnes)
		}
		est += e.adc.Convert(core.ChunkWord(word, chunks), chunks, pos, neg, scale)
		exact += (pos - neg) * scale
		chunks++
	}
	return est, exact, chunks, nil
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
// It runs the closed-form count (a lane's count is ib*wb >> B) as a
// register-tiled kernel over packed operand rows. Each DKV is
// range-checked once into magnitude and sign-mask lanes (and digested
// once for a noisy ADC), and each row is digested once. Then one of two
// kernels counts every (row group, DKV pair, psum chunk):
//
//   - The SIMD kernel (amd64 with AVX2) packs 16 rows per lane as
//     uint16 fields x<<(16-B); a 16-bit high multiply by the weight
//     magnitude is each row's exact count floor(x*w/2^B). It runs when
//     every lane is below 2^B, B <= 8, a psum chunk's count sum stays
//     below 2^16 (min(N, S)*floor((2^B-1)^2/2^B) < 2^16) and the tile
//     has at least simdMinRows rows: everything quant feeds a served
//     model, whose quantizers clamp to +-(2^B-1).
//   - The portable kernel packs e.fields rows per uint64 in fields of
//     e.width bits, so one multiply by a weight magnitude yields every
//     packed row's product; a shift by B and a mask keep each field's
//     floor. A field holds a product's 2B+1 bits and a psum chunk's
//     count sum (at most N*2^B), so no field carries into the next.
//
// Either way the weight's sign mask adds a count to the negative sum as
// well as the total, so the counts are exactly Dot's, chunk seams
// included, and each (row, DKV) then converts its chunks in order on
// its own keyed ADC row. DotTile panics where the Dot loop would
// (pinned by the tile equivalence tests and FuzzDotTile).
func (e *Engine) DotTile(rows, dkvs []int, s int, out []int) {
	nr, nd := len(rows)/s, len(dkvs)/s
	if nr == 0 || nd == 0 {
		return // no Dot calls: nothing to validate
	}
	ideal := e.adc.Ideal()
	l := 1 << uint(e.cfg.Bits)
	e.lanes = grow(e.lanes, nd*s)
	e.dkvMix = grow(e.dkvMix, nd)
	var wor uint64 // every weight magnitude ORed: below l when all are
	for j := range nd {
		dkv := dkvs[j*s : (j+1)*s]
		w := e.lanes[j*s : (j+1)*s]
		for k, wb := range dkv {
			sg := wb >> signShift
			if m := (wb ^ sg) - sg; uint(m) <= uint(l) {
				w[k] = lane{mag: uint64(m), neg: uint64(sg)}
				wor |= uint64(m)
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
	e.rowKeys = grow(e.rowKeys, nr)
	if !ideal {
		for i := range nr {
			e.rowKeys[i] = core.VecKey(rows[i*s : (i+1)*s])
		}
	}
	if e.simdFits(nr, s, wor) && e.packRows16(rows, nr, s) {
		e.tile16(out, nr, nd, s)
		return
	}
	e.packRows(rows, nr, s)
	e.tileFields(out, nr, nd, s)
}

// simdFits reports whether a tile of nr rows of s lanes, whose weight
// magnitudes OR to wor, meets the SIMD kernel's terms but for its rows'
// range, which packRows16 checks.
func (e *Engine) simdFits(nr, s int, wor uint64) bool {
	l := 1 << uint(e.cfg.Bits)
	return useSIMD && nr >= simdMinRows && e.cfg.Bits <= 8 && wor < uint64(l) &&
		min(e.cfg.N, s)*((l-1)*(l-1)>>uint(e.cfg.Bits)) < 1<<16
}

// packRows16 packs the rows for the SIMD kernel, 16 per group: lane k
// of row 16g+r is the uint16 field r%4 of word (g*s+k)*4+r/4 of x16
// (little-endian, so the 16 fields of a lane lie in row order), holding
// row[k] << (16-B). Fields past the last row hold copies of it or stale
// values: the kernel counts every lane independently, and those rows'
// counts are never read. It reports false, leaving the rows to the
// portable kernel (which panics on an out-of-range lane), when some lane
// is not below 2^B.
func (e *Engine) packRows16(rows []int, nr, s int) bool {
	e.x16 = grow(e.x16, (nr+15)/16*s*4)
	sh, or := uint(16-e.cfg.Bits), 0
	row := func(i int) []int {
		i = min(i, nr-1)
		return rows[i*s : (i+1)*s]
	}
	for i := 0; i < nr; i += 4 {
		g, q := i/16, i%16/4
		or |= packQuad(e.x16[g*s*4+q:(g+1)*s*4], row(i), row(i+1), row(i+2), row(i+3), sh)
	}
	return uint(or) < 1<<uint(e.cfg.Bits)
}

// packQuad writes four rows' lanes, each shifted left by sh into a
// uint16 field, to x at a stride of 4 words (one word per lane) and
// returns the OR of the lanes. It stays out of line: inlined into
// packRows16, its loop shared the caller's registers and spilled.
//
//go:noinline
func packQuad(x []uint64, r0, r1, r2, r3 []int, sh uint) (or int) {
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	sh &= 15
	for k, a := range r0 {
		b, c, d := r1[k], r2[k], r3[k]
		or |= a | b | c | d
		x[k*4] = uint64(uint16(a<<sh)) | uint64(uint16(b<<sh))<<16 | uint64(uint16(c<<sh))<<32 | uint64(uint16(d<<sh))<<48
	}
	return or
}

// tile16 runs the SIMD kernel over the rows packRows16 packed: each
// DKV pair passes once over a 16-row group, one tile16x2 call per psum
// chunk, and the group's counts convert straight from the kernel's
// sums. An odd last DKV is counted against itself as the pair's second.
func (e *Engine) tile16(out []int, nr, nd, s int) {
	n, nch := e.cfg.N, e.Chunks(s)
	e.sums16 = grow(e.sums16, nch*64)
	for g := range (nr + 15) / 16 {
		x := e.x16[g*s*4 : (g+1)*s*4]
		r0, rn := g*16, min(16, nr-g*16)
		for j := 0; j < nd; j += 2 {
			j1 := min(j+1, nd-1)
			w0, w1 := e.lanes[j*s:(j+1)*s], e.lanes[j1*s:(j1+1)*s]
			for c := range nch {
				lo, hi := c*n, min((c+1)*n, s)
				tile16x2(&x[lo*4], &w0[lo], &w1[lo], hi-lo, (*[64]uint16)(e.sums16[c*64:]))
			}
			e.convertRows16(out, nr, j, 0, r0, rn)
			if j1 > j {
				e.convertRows16(out, nr, j1, 1, r0, rn)
			}
		}
	}
}

// convertRows16 converts DKV j's counts for the rn rows of a 16-row
// group from row r0, the pair's DKV h in e.sums16.
func (e *Engine) convertRows16(out []int, nr, j, h, r0, rn int) {
	convertRows(e.adc, out[j*nr+r0:j*nr+r0+rn], e.rowKeys[r0:], e.dkvMix[j], e.sums16[32*h:], 16, 64, len(e.sums16)/64, 1<<uint(e.cfg.Bits))
}

// packRows range-checks the rows and packs them for the portable
// kernel, e.fields per word: lane k of row t*f+r is field r of
// xs[t*s+k].
func (e *Engine) packRows(rows []int, nr, s int) {
	f, width, l := e.fields, e.width, 1<<uint(e.cfg.Bits)
	nt := (nr + f - 1) / f
	e.xs = grow(e.xs, nt*s)
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
		}
	}
}

// tileFields runs the portable kernel over the rows packRows packed:
// each DKV pair passes once over a row group (tile2 per psum chunk, tile1
// for an odd last DKV), and the group's field sums unpack into e.counts
// for the shared conversion loop.
func (e *Engine) tileFields(out []int, nr, nd, s int) {
	f, shift := e.fields, uint(e.cfg.Bits)
	n, nch := e.cfg.N, e.Chunks(s)
	e.sums = grow(e.sums, 2*nch)
	e.counts = grow(e.counts, 2*f*nch)
	for t := range (nr + f - 1) / f {
		x := e.xs[t*s : (t+1)*s]
		r0, rn := t*f, min(f, nr-t*f)
		j := 0
		for ; j+2 <= nd; j += 2 {
			w0, w1 := e.lanes[j*s:(j+1)*s], e.lanes[(j+1)*s:(j+2)*s]
			for c := range nch {
				lo, hi := c*n, min((c+1)*n, s)
				e.sums[2*c], e.sums[2*c+1] = tile2(x[lo:hi], w0[lo:hi], w1[lo:hi], shift, e.mask)
			}
			e.convertFields(out, nr, j, 0, r0, rn)
			e.convertFields(out, nr, j+1, 1, r0, rn)
		}
		for ; j < nd; j++ {
			w := e.lanes[j*s : (j+1)*s]
			for c := range nch {
				lo, hi := c*n, min((c+1)*n, s)
				e.sums[2*c] = tile1(x[lo:hi], w[lo:hi], shift, e.mask)
			}
			e.convertFields(out, nr, j, 0, r0, rn)
		}
	}
}

// convertFields unpacks DKV j's field sums (the pair's DKV h in e.sums)
// for the rn rows of a group from row r0 and converts them. A chunk's
// counts are at most min(N, S)*2^B, inside the PCA capacity, so the
// capacity check cannot fire here.
func (e *Engine) convertFields(out []int, nr, j, h, r0, rn int) {
	f, cmask, nch := e.fields, e.cmask, len(e.sums)/2
	for c := range nch {
		fs, cnt := e.sums[2*c+h], e.counts[2*f*c:2*f*(c+1)]
		for r := range rn {
			sh := uint(r) * e.width & 63
			cnt[r], cnt[f+r] = fs.total>>sh&cmask, fs.neg>>sh&cmask
		}
	}
	convertRows(e.adc, out[j*nr+r0:j*nr+r0+rn], e.rowKeys[r0:], e.dkvMix[j], e.counts, f, 2*f, nch, 1<<uint(e.cfg.Bits))
}

// convertRows is the one conversion loop of both kernels: out[r] is
// row r's estimate against one DKV, for groups of at most 16 rows, its
// nch chunks converted in order on the row's keyed ADC noise words
// (keys[r] ^ mix is the row key). Chunk c's count total for row r is
// sums[c*stride+r] and its negative part sums[c*stride+g+r]. The rows'
// first noise words are derived in one pass and the chunks converted in
// another, chunk by chunk, which keeps each loop's state in registers.
func convertRows[T uint16 | uint64](adc *core.ADC, out []int, keys []uint64, mix uint64, sums []T, g, stride, nch, scale int) {
	var buf [16]uint64
	words := buf[:len(out)]
	if !adc.Ideal() {
		for r := range words {
			words[r] = adc.RowWord(keys[r] ^ mix)
		}
	}
	clear(out)
	for c := range nch {
		tot, neg := sums[c*stride:][:len(out)], sums[c*stride+g:][:len(out)]
		for r, w := range words {
			n := int(neg[r])
			out[r] += adc.Convert(core.ChunkWord(w, c), c, int(tot[r])-n, n, scale)
		}
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

// cacheLine is the cache-line size grow and Engine pad scratch by.
const cacheLine = 64

// grow resizes buf to n elements, reallocating only when capacity is
// short. Contents are unspecified. A new buffer sits cacheLine elements
// (at least cacheLine bytes) inside its allocation at both ends, so no
// other object shares a cache line with the part that gets written.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n+2*cacheLine)[cacheLine : cacheLine+n : cacheLine+n]
	}
	return buf[:n]
}
