// Package sckernel is the serving-speed stochastic-computing compute
// plane: the SCONNA functional core computed in closed form.
//
// The scalar reference (core.VDPE.Dot over sc.OSMLUT.MulInts) walks a
// dot product lane by lane, each lane performing a LUT lookup and a
// bitstream.AndPopCount over a 2^B-bit stream pair. For the OSM LUT's
// pairing (unary inputs, Bresenham weights) that count is exactly
// ib*wb >> B: a unary stream of ib ones selects the first ib bits of the
// weight stream, and a Bresenham stream of wb ones carries exactly
// floor(p*wb/2^B) ones in its first p bits. New proves that property
// once per precision, bit for bit over the generated weight streams,
// and refuses to build an engine where it fails; every kernel here then
// computes the closed form and simulates no stream.
//
// Engine is the one SC engine in production (serving, Table V, the
// examples). Its layer-tile entry point, DotTile, counts many operand
// rows per multiply — the software analogue of SCONNA multiplying N
// lanes at once on N DWDM wavelengths — on one of two kernels:
//
//   - On amd64 with AVX2 (CPUID and XGETBV, read once per process), a
//     SIMD kernel counts 16 rows per YMM register: rows packed as uint16
//     lanes x<<(16-B), one VPMULHUW by a broadcast weight magnitude
//     yields every row's exact count floor(x*w/2^B). DotTile takes it
//     when the tile allows it: B <= 8, every operand lane below 2^B (an
//     OR taken while packing), a psum chunk's count sum below 2^16
//     (min(N, S)*floor((2^B-1)^2/2^B) < 2^16), and at least simdMinRows
//     rows. Every tile quant produces for a served model qualifies: its
//     quantizers clamp to +-(2^B-1) and quant.MaxBits is 8.
//   - Everywhere else — other GOARCHes, no AVX2, B > 8, a lane at 2^B,
//     out-of-range operands (which panic), small tiles — the portable
//     kernel packs three rows per uint64 in 21-bit fields (two 32-bit
//     fields, or one, when the precision or the VDPE size needs wider
//     ones), so one multiply by a weight yields three rows' products.
//
// No flag, option or environment variable selects the kernel; both
// produce the same counts, and both feed one conversion loop over the
// stateless core.ADC. The conv entry, DotConv (quant.ConvDotter), feeds
// the same kernels from one example's quantized planes instead of a
// gathered block: on a stride-1 tile whose output width is a multiple
// of 4 it packs the SIMD kernel's rows straight from the planes and
// digests them on the way (an implicit GEMM), against weight rows
// prepared once per layer; any other tile takes the reference gather. The per-vector Dot counts each psum chunk with
// one multiply and shift per lane.
//
// The contract is bitwise pinning, the same pattern as ForwardNaive vs
// the GEMM lowering: every kernel here must produce exactly the counts
// the scalar reference produces — PosOnes, NegOnes, Exact, and (through
// Engine, which shares core.VDPC.DotLarge's chunk seams and keyed
// core.ADC conversion) Est. The scalar path stays in the tree as the
// pinned reference; the equivalence tier in this package's tests sweeps
// every precision, chunk seams and operand extremes asserting the two
// agree bit for bit.
package sckernel

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitstream"
)

// maxBits is the highest operand precision New accepts, the core's own
// limit.
const maxBits = 12

// useSIMD lets DotTile run the SIMD kernel where the CPU has one
// (haveAVX2); in-package tests clear it to pin the portable kernel.
var useSIMD = haveAVX2

// simdMinRows is the fewest rows a tile needs to take the SIMD kernel.
// Measured on the served conv shapes (S = 9, 36, 72 against 4, 8, 16
// DKVs, quantizer-range operands, 2-vCPU Xeon): at 1 to 3 rows the two
// kernels are within noise of each other, and from 4 rows the SIMD
// kernel is faster on all three shapes; at 16 rows it takes 1.5-1.9x
// less time.
const simdMinRows = 4

// signShift arithmetic-shifts an int down to its sign word (-1 or 0).
const signShift = bits.UintSize - 1

// rateExact memoizes weightsRateExact per precision: the proof walks
// (2^B+1)^2 stream bits, so it runs once per process, not per engine.
var rateExact [maxBits + 1]struct {
	once sync.Once
	ok   bool
}

// weightsRateExact reports whether every Bresenham weight stream of
// precision bitsN — byte-identical to the OSM LUT's, entry wb being
// bitstream.Bresenham{}.Generate(wb, 2^bitsN) — carries exactly
// floor(p*wb/2^bitsN) ones in its first p bits, for every p. That exact
// rate-coding property is what licenses the closed-form count
// ib*wb >> B against a unary input of ib ones. The streams are checked
// one bit at a time and dropped; only the verdict is kept.
func weightsRateExact(bitsN int) bool {
	r := &rateExact[bitsN]
	r.once.Do(func() {
		l := 1 << uint(bitsN)
		for v := 0; v <= l; v++ {
			words := bitstream.Bresenham{}.Generate(v, l).Words()
			c := 0
			for q := 0; q <= l; q++ {
				if c != q*v>>uint(bitsN) {
					return
				}
				if q < l && words[q>>6]&(1<<(uint(q)&63)) != 0 {
					c++
				}
			}
		}
		r.ok = true
	})
	return r.ok
}

// dotCounts returns the two accumulator counts of one psum chunk — what
// the scalar reference's pair of photo-charge accumulators integrate in
// core.VDPE.Dot — for an unsigned DIV against a signed DKV of the same
// length, both bounded by 2^bitsN. A lane's count is ib*wb >> bitsN
// (licensed by weightsRateExact); the weight's sign steers it into the
// negative accumulator.
func dotCounts(div, dkv []int, bitsN int) (pos, neg int, err error) {
	dkv = dkv[:len(div)]
	l, shift := 1<<uint(bitsN), uint(bitsN)
	for i, ib := range div {
		// Arithmetic sign extraction instead of a data-dependent branch:
		// s is all-ones for negative weights, steering c into the
		// matching accumulator via masks.
		wb := dkv[i]
		s := wb >> signShift
		wb = (wb ^ s) - s
		if uint(ib) > uint(l) || uint(wb) > uint(l) {
			return 0, 0, fmt.Errorf("sckernel: operand out of range at lane %d (i=%d w=%d)", i, div[i], dkv[i])
		}
		c := ib * wb >> shift
		neg += c & s
		pos += c &^ s
	}
	return pos, neg, nil
}
