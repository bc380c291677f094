// Package sckernel is the word-packed stochastic-computing compute
// plane: the serving-speed implementation of the SCONNA functional core.
//
// The scalar reference (core.VDPE.Dot over sc.OSMLUT.MulInts) walks a
// dot product lane by lane, each lane performing a LUT lookup and a
// bitstream.AndPopCount over a 2^B-bit stream pair. This package packs
// the LUT's operand streams into one contiguous []uint64 word matrix per
// (bits, generator) pair — the Plane, built once and shared by every
// engine — and computes the same signed dot products through fused
// AND+popcount kernels that touch 64 stream bits per instruction, with
// sign steering driven by sign masks instead of a per-lane branch.
//
// The contract is bitwise pinning, the same pattern as ForwardNaive vs
// the GEMM lowering: every kernel here must produce exactly the counts
// the scalar reference produces — PosOnes, NegOnes, Exact, and (through
// Engine, which shares core.VDPC.DotLarge's chunk seams and keyed
// core.ADC conversion) Est. The scalar path stays in the tree as the pinned
// reference; the equivalence tier in this package's tests sweeps
// precisions, chunk seams and operand extremes asserting the two planes
// agree bit for bit.
package sckernel

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitstream"
)

// Plane is the packed LUT image for one (bits, generator-pair) point:
// the stream vectors of sc.NewOSMLUT laid out as contiguous word
// matrices, value v's stream occupying words [v*W, (v+1)*W). A Plane is
// immutable after construction and safe to share across any number of
// goroutines and engines; PlaneFor caches one per precision for the
// default Unary/Bresenham pairing the OSM LUT uses.
type Plane struct {
	// Bits is the operand precision B; streams carry L = 2^B bits.
	Bits int
	// L is the stream length in bits (2^Bits).
	L int
	// W is the packed stream width in 64-bit words.
	W int

	// iw, ww are the input-role and weight-role images: entry v at
	// [v*W:(v+1)*W], for v in [0, L] (L+1 entries; all-ones encodes
	// full scale, exactly like the scalar LUT).
	iw, ww []uint64

	// wpfx holds, for each weight entry, the popcount of every
	// word-boundary prefix of its stream: entry wb's prefixes occupy
	// [wb*(W+1), (wb+1)*(W+1)), wpfx[wb*(W+1)+q] counting the ones in
	// the first q words. Valid only alongside unaryInput.
	wpfx []uint32

	// wwp is the weight image re-laid at stride W+1 with a zero pad
	// word per row, indexed in lockstep with wpfx. The pad makes the
	// prefix kernel branchless: for ib = q*64 the partial-word mask is
	// zero, so reading the pad word (q = W when ib = L) contributes
	// nothing and no full-stream special case is needed. Valid only
	// alongside unaryInput.
	wwp []uint64

	// unaryInput records that the input-role generator is thermometer
	// coding, which makes AndPopCount(iStream[ib], w) a prefix popcount
	// of w — the O(1)-per-lane fast path DotCounts takes.
	unaryInput bool

	// analytic records that every weight stream additionally satisfies
	// the exact rate-coding prefix property (the first p bits of entry
	// wb carry exactly p*wb/L ones — Bresenham/PWM coding does, by
	// construction), verified bit for bit at build time. Under unary
	// inputs that collapses the lane product to ib*wb >> Bits, the
	// multiply-shift kernel DotCounts prefers; the stream images and
	// word kernels remain the pinned reference behind it.
	analytic bool
}

// signShift arithmetic-shifts an int down to its sign word (-1 or 0).
const signShift = bits.UintSize - 1

// NewPlane packs the LUT image for operand precision bits and the given
// generator pairing. Stream generation is byte-identical to
// sc.NewOSMLUT: entry v of each role is g.Generate(v, 2^bits).
func NewPlane(bitsN int, gi, gw bitstream.Generator) *Plane {
	if bitsN < 1 || bitsN > 16 {
		panic(fmt.Sprintf("sckernel: unsupported plane precision %d", bitsN))
	}
	l := 1 << uint(bitsN)
	w := (l + 63) / 64
	_, unary := gi.(bitstream.Unary)
	p := &Plane{
		Bits:       bitsN,
		L:          l,
		W:          w,
		iw:         make([]uint64, (l+1)*w),
		ww:         make([]uint64, (l+1)*w),
		unaryInput: unary,
	}
	for v := 0; v <= l; v++ {
		copy(p.iw[v*w:(v+1)*w], gi.Generate(v, l).Words())
		copy(p.ww[v*w:(v+1)*w], gw.Generate(v, l).Words())
	}
	if unary {
		p.wpfx = make([]uint32, (l+1)*(w+1))
		p.wwp = make([]uint64, (l+1)*(w+1))
		for v := 0; v <= l; v++ {
			var c uint32
			for q := 0; q < w; q++ {
				p.wpfx[v*(w+1)+q] = c
				p.wwp[v*(w+1)+q] = p.ww[v*w+q]
				c += uint32(bits.OnesCount64(p.ww[v*w+q]))
			}
			p.wpfx[v*(w+1)+w] = c
			// p.wwp[v*(w+1)+w] stays zero: the pad word.
		}
		p.analytic = p.weightsRateExact()
	}
	return p
}

// weightsRateExact verifies, one stream bit at a time, that every weight
// entry wb carries exactly floor(p*wb/L) ones in its first p bits — the
// exact rate-coding property that licenses the analytic multiply-shift
// kernel. Run once at plane build; any generator that breaks it (e.g.
// LFSR) simply keeps the prefix/word kernels.
func (p *Plane) weightsRateExact() bool {
	l, w := p.L, p.W
	for v := 0; v <= l; v++ {
		row := p.ww[v*w : (v+1)*w]
		c := 0
		for q := 0; q <= l; q++ {
			if c != q*v>>uint(p.Bits) {
				return false
			}
			if q < l && row[q>>6]&(1<<(uint(q)&63)) != 0 {
				c++
			}
		}
	}
	return true
}

// planeCache shares one default-pair Plane per precision across the
// process: every engine of a pool, every serving model at the same
// operand precision, reads the same immutable image.
var planeCache struct {
	mu sync.Mutex
	m  map[int]*Plane
}

// PlaneFor returns the shared Plane for the default OSM LUT pairing
// (unary inputs, Bresenham weights) at the given precision, building it
// on first use.
func PlaneFor(bitsN int) *Plane {
	planeCache.mu.Lock()
	defer planeCache.mu.Unlock()
	if planeCache.m == nil {
		planeCache.m = make(map[int]*Plane)
	}
	p, ok := planeCache.m[bitsN]
	if !ok {
		p = NewPlane(bitsN, bitstream.Unary{}, bitstream.Bresenham{})
		planeCache.m[bitsN] = p
	}
	return p
}

// rangeErr reports the scalar reference's operand contract violation.
func (p *Plane) rangeErr(lane, ib, wb int) error {
	return fmt.Errorf("sckernel: operand out of range at lane %d (i=%d w=%d)", lane, ib, wb)
}

// DotCounts computes the signed stochastic dot product of an unsigned
// DIV against a signed DKV (both values bounded by 2^Bits) and returns
// the two accumulator counts — exactly what the scalar reference's pair
// of photo-charge accumulators integrate in core.VDPE.Dot. On the
// default unary-input plane it runs the prefix-popcount kernel (O(1)
// words per lane); otherwise it falls back to the fused word walk of
// DotCountsGeneric. Both are bit-identical to the scalar path.
func (p *Plane) DotCounts(div, dkv []int) (pos, neg int, err error) {
	if !p.unaryInput {
		return p.DotCountsGeneric(div, dkv)
	}
	if len(div) != len(dkv) {
		return 0, 0, fmt.Errorf("sckernel: DIV/DKV length mismatch %d vs %d", len(div), len(dkv))
	}
	dkv = dkv[:len(div)]
	l := p.L
	if p.analytic {
		// Exact rate coding: AndPopCount(unary(ib), wStream[wb]) ==
		// ib*wb >> Bits for every pair (verified against the stream
		// image at plane build) — one multiply per lane, no loads.
		shift := uint(p.Bits)
		for i, ib := range div {
			// Arithmetic sign extraction instead of a data-dependent
			// branch: s is all-ones for negative weights, steering c
			// into the matching accumulator via masks.
			wb := dkv[i]
			s := wb >> signShift
			wb = (wb ^ s) - s
			if uint(ib) > uint(l) || uint(wb) > uint(l) {
				return 0, 0, p.rangeErr(i, div[i], dkv[i])
			}
			c := ib * wb >> shift
			neg += c & s
			pos += c &^ s
		}
		return pos, neg, nil
	}
	w1 := p.W + 1
	wwp, wpfx := p.wwp, p.wpfx
	for i, ib := range div {
		wb := dkv[i]
		s := wb >> signShift
		wb = (wb ^ s) - s
		if uint(ib) > uint(l) || uint(wb) > uint(l) {
			return 0, 0, p.rangeErr(i, div[i], dkv[i])
		}
		// AndPopCount(unary(ib), wStream[wb]) is the ones count of the
		// first ib stream bits: whole words come from the prefix table,
		// the partial word from one masked popcount (of the zero pad
		// word when ib lands on a word boundary — contributing nothing).
		base := wb*w1 + ib>>6
		c := int(wpfx[base]) + bits.OnesCount64(wwp[base]&(1<<(uint(ib)&63)-1))
		neg += c & s
		pos += c &^ s
	}
	return pos, neg, nil
}

// DotCountsGeneric is the image-walking kernel: for each lane it ANDs
// the two packed stream rows word by word, popcounting 64 product bits
// per instruction. It works for any generator pairing and is the
// packed-plane reference the prefix fast path is pinned against.
func (p *Plane) DotCountsGeneric(div, dkv []int) (pos, neg int, err error) {
	if len(div) != len(dkv) {
		return 0, 0, fmt.Errorf("sckernel: DIV/DKV length mismatch %d vs %d", len(div), len(dkv))
	}
	l, w := p.L, p.W
	for i, ib := range div {
		wb := dkv[i]
		negw := wb < 0
		if negw {
			wb = -wb
		}
		if uint(ib) > uint(l) || uint(wb) > uint(l) {
			return 0, 0, p.rangeErr(i, div[i], dkv[i])
		}
		iw := p.iw[ib*w : ib*w+w]
		wwRow := p.ww[wb*w : wb*w+w : wb*w+w]
		c := 0
		for j, word := range iw {
			c += bits.OnesCount64(word & wwRow[j])
		}
		if negw {
			neg += c
		} else {
			pos += c
		}
	}
	return pos, neg, nil
}

// PackedDKV is a weight operand vector in packed form: unsigned stream
// magnitudes plus a per-lane sign mask (-1 when lane i is negative, 0
// otherwise) that steers each lane's count into the matching
// accumulator with two mask ops. Packing validates the magnitudes once,
// so kernels applying the same weight vector to many DIVs — the conv
// inner loop the serving plane lowers onto — skip the per-lane sign
// extraction and weight range check on every reuse.
type PackedDKV struct {
	mags []int
	negm []int
	n    int
}

// Len returns the packed vector's lane count.
func (w *PackedDKV) Len() int { return w.n }

// PackDKV packs dkv into dst, reusing its buffers. Magnitudes must be
// within [0, 2^Bits].
func (p *Plane) PackDKV(dst *PackedDKV, dkv []int) error {
	n := len(dkv)
	dst.n = n
	if cap(dst.mags) < n {
		dst.mags = make([]int, n)
		dst.negm = make([]int, n)
	}
	dst.mags = dst.mags[:n]
	dst.negm = dst.negm[:n]
	for i, wb := range dkv {
		s := wb >> signShift
		wb = (wb ^ s) - s
		if uint(wb) > uint(p.L) {
			return fmt.Errorf("sckernel: weight magnitude out of range at lane %d (w=%d)", i, dkv[i])
		}
		dst.mags[i] = wb
		dst.negm[i] = s
	}
	return nil
}

// DotPacked is DotCounts against a pre-packed weight vector: sign
// steering reads the per-lane masks (branch-free accumulator select) and
// only the DIV side is range-checked per call.
func (p *Plane) DotPacked(div []int, w *PackedDKV) (pos, neg int, err error) {
	if len(div) != w.n {
		return 0, 0, fmt.Errorf("sckernel: DIV/DKV length mismatch %d vs %d", len(div), w.n)
	}
	l := p.L
	mags, negm := w.mags[:len(div)], w.negm[:len(div)]
	if !p.unaryInput {
		ws := p.W
		for i, ib := range div {
			if uint(ib) > uint(l) {
				return 0, 0, fmt.Errorf("sckernel: input out of range at lane %d (i=%d)", i, ib)
			}
			wb := mags[i]
			iw := p.iw[ib*ws : ib*ws+ws]
			wwRow := p.ww[wb*ws : wb*ws+ws : wb*ws+ws]
			c := 0
			for j, word := range iw {
				c += bits.OnesCount64(word & wwRow[j])
			}
			neg += c & negm[i]
			pos += c &^ negm[i]
		}
		return pos, neg, nil
	}
	if p.analytic {
		shift := uint(p.Bits)
		for i, ib := range div {
			if uint(ib) > uint(l) {
				return 0, 0, fmt.Errorf("sckernel: input out of range at lane %d (i=%d)", i, ib)
			}
			c := ib * mags[i] >> shift
			neg += c & negm[i]
			pos += c &^ negm[i]
		}
		return pos, neg, nil
	}
	w1 := p.W + 1
	wwp, wpfx := p.wwp, p.wpfx
	for i, ib := range div {
		if uint(ib) > uint(l) {
			return 0, 0, fmt.Errorf("sckernel: input out of range at lane %d (i=%d)", i, ib)
		}
		base := mags[i]*w1 + ib>>6
		c := int(wpfx[base]) + bits.OnesCount64(wwp[base]&(1<<(uint(ib)&63)-1))
		neg += c & negm[i]
		pos += c &^ negm[i]
	}
	return pos, neg, nil
}
