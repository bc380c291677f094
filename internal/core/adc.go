package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/digest"
)

// MaxADCMAPEPct is the largest converter error Config.ADCMAPEPct may
// ask for (the range is [0, MaxADCMAPEPct]). At 20% the table's largest
// relative error, 3.67 sigma, is still below 1, so a converted count
// never changes sign.
const MaxADCMAPEPct = 20

// The converter's fixed-point layout.
const (
	adcFrac  = 24 // relative errors are Q24 integers: round(eps * 2^24)
	adcOne   = 1 << adcFrac
	adcHalf  = adcOne >> 1
	adcField = 12 // bits of a noise word that pick one table entry
	adcSize  = 1 << adcField
	adcMask  = adcSize - 1
	// adcGamma steps between a row's noise words (the splitmix64
	// increment).
	adcGamma = 0x9e3779b97f4a7c15
)

// ADC is the keyed converter model shared by every SC dot engine (the
// scalar VDPE/VDPC here and the packed sckernel.Engine), so their
// estimates agree bit for bit.
//
// Each PCA's accumulated count passes through its own converter with a
// zero-mean Gaussian relative error eps whose mean absolute value is
// ADCMAPEPct (Sec. V-C). The Gaussian is realized in integer fixed
// point: eps is an entry of a table of 2^12 unit-normal midpoint
// quantiles (built once per process; mean |z| 0.797845 against
// sqrt(2/pi) = 0.797885, tails at +-3.67), scaled by sigma into Q24
// integers (eps * 2^24). A chunk with PCA counts pos and neg converts to
//
//	round(pos*(2^24+eps_p) - neg*(2^24+eps_n), 24 bits) * scale
//
// rounded half away from zero by a shift: no float, no math/rand.
//
// The errors are keyed, not streamed. A row (one DIV·DKV product,
// however many psum chunks it decomposes into) reads 64-bit noise words:
// word 0 is Mix64(ADCSeed ^ rowKey), where the row key digests the two
// operand vectors (RowKey), and word w >= 1 is Mix64(word0 + w*gamma).
// Chunk c owns two fixed 12-bit fields of word c/2, at bit 24*(c%2):
// the positive PCA's table index, then the negative PCA's. Nothing is
// skipped: a zero count reads its field and converts to zero, so no
// chunk's error depends on another chunk's counts. A conversion is
// therefore a pure function of the configuration, the operands and the
// chunk index: independent of call order, of which VDPE runs a chunk,
// and of every other conversion. Keying by content rather than by
// position (example, layer, pixel) lets a bare Dot, which sees only
// operands, agree with every batched path; the price is that two
// conversions of identical operands share one error draw.
//
// An ADC is immutable after NewADC and holds no row state: RowWord
// derives a row's word 0 from its key, ChunkWord a chunk's word from
// word 0, and Convert maps (word, chunk index, counts) to the estimate,
// so the caller walks the chunk index. All three inline into the
// engines' conversion loops, and one ADC may serve any number of
// goroutines.
type ADC struct {
	ideal bool
	eps   *[adcSize]int32 // sigma-scaled quantile table, Q24
	seed  uint64
}

// NewADC builds the converter for cfg. A zero ADCMAPEPct on a noisy
// configuration selects the paper's 1.3%. It fails closed on an
// ADCMAPEPct outside [0, MaxADCMAPEPct] and on a VDPE whose PCA count
// N*2^B could overflow the Q24 product pos*(2^24+eps) in an int64.
func NewADC(cfg Config) (*ADC, error) {
	mape := cfg.ADCMAPEPct
	if !(mape >= 0 && mape <= MaxADCMAPEPct) {
		return nil, fmt.Errorf("core: ADCMAPEPct=%v outside [0, %d]", mape, MaxADCMAPEPct)
	}
	if mape == 0 && !cfg.IdealADC {
		mape = 1.3
	}
	eps := adcTable(mape)
	bound := (math.MaxInt64 - adcHalf) / (adcOne + int64(eps[adcSize-1]))
	if cfg.Bits < 0 || cfg.Bits >= 63 || int64(cfg.N) > bound>>uint(cfg.Bits) {
		return nil, fmt.Errorf("core: VDPE size N=%d at B=%d: a PCA count N*2^B past %d overflows the ADC's Q24 product",
			cfg.N, cfg.Bits, bound)
	}
	return &ADC{ideal: cfg.IdealADC, eps: eps, seed: uint64(cfg.ADCSeed)}, nil
}

// Ideal reports a noise-free converter: Convert passes the exact count
// through and ignores row keys.
func (a *ADC) Ideal() bool { return a.ideal }

// RowWord returns word 0 of the row keyed rowKey, the first of the
// row's noise words. An ideal converter reads none, so callers may skip
// it (and the row key's digests) there.
func (a *ADC) RowWord(rowKey uint64) uint64 { return digest.Mix64(a.seed ^ rowKey) }

// OperandWord returns word 0 of the row (div, dkv), keyed by its
// operands, or 0 without digesting them when the converter is ideal.
func (a *ADC) OperandWord(div, dkv []int) uint64 {
	if a.ideal {
		return 0
	}
	return a.RowWord(RowKey(VecKey(div), VecKey(dkv)))
}

// ChunkWord returns the noise word psum chunk c of a row reads, given
// the row's word 0: word 0 itself for chunks 0 and 1, and
// Mix64(word0 + (c/2)*gamma) after them.
func ChunkWord(word0 uint64, c int) uint64 {
	if c < 2 {
		return word0
	}
	return digest.Mix64(word0 + uint64(c>>1)*adcGamma)
}

// Convert converts the PCA counts of psum chunk c, whose noise word
// (ChunkWord) is word, into integer product units. Counts must lie in
// [0, N*2^B].
func (a *ADC) Convert(word uint64, c, pos, neg, scale int) int {
	if a.ideal {
		return (pos - neg) * scale
	}
	f := word >> (uint(c&1) * 2 * adcField)
	v := int64(pos)*(adcOne+int64(a.eps[f&adcMask])) - int64(neg)*(adcOne+int64(a.eps[f>>adcField&adcMask]))
	// Round half away from zero: floor((v+half)/2^24) for v >= 0, and
	// floor((v+half-1)/2^24) = -floor((|v|+half)/2^24) for v < 0.
	return int((v+adcHalf+v>>63)>>adcFrac) * scale
}

// unitQuantiles is the table of 2^12 unit-normal midpoint quantiles,
// z_i = sqrt(2)*erfinv(2(i+1/2)/2^12 - 1), built on first use.
var unitQuantiles = sync.OnceValue(func() *[adcSize]float64 {
	var z [adcSize]float64
	for i := range z {
		z[i] = math.Sqrt2 * math.Erfinv(float64(2*i+1-adcSize)/adcSize)
	}
	return &z
})

// adcTables memoizes the sigma-scaled Q24 tables by MAPE, so every
// converter at one operating point (a VDPC holds M+1 of them) shares one.
var adcTables sync.Map // math.Float64bits(mape) -> *[adcSize]int32

// adcTable returns the Q24 relative-error table realizing mape percent:
// round(z_i * sigma * 2^24) with E|eps| = sigma*sqrt(2/pi) = mape/100.
func adcTable(mape float64) *[adcSize]int32 {
	key := math.Float64bits(mape)
	if t, ok := adcTables.Load(key); ok {
		return t.(*[adcSize]int32)
	}
	sigma := mape / 100 * math.Sqrt(math.Pi/2)
	var t [adcSize]int32
	for i, z := range unitQuantiles() {
		t[i] = int32(math.Round(z * sigma * adcOne))
	}
	got, _ := adcTables.LoadOrStore(key, &t)
	return got.(*[adcSize]int32)
}

// VecKey digests one operand vector: its length and every lane value.
// It is the half of a row key a caller can compute once and reuse for
// every DKV the same DIV meets (see quant.TileDotter). Lane k feeds
// chain k%4 of four independent xor-multiply chains, so the multiplies
// overlap instead of waiting on each other (about 3x faster than one
// chain); the lanes past the last multiple of 4 feed chain 0. Chain c
// starts at KeySeed(len(v), c), each step is h = (h ^ lane) * KeyPrime,
// and KeyFinish combines the four: a caller holding the lanes in
// another layout can fold them in the same order for the same digest.
func VecKey(v []int) uint64 {
	const p = KeyPrime
	a, b, c, d := KeySeed(len(v), 0), KeySeed(len(v), 1), KeySeed(len(v), 2), KeySeed(len(v), 3)
	for ; len(v) >= 4; v = v[4:] {
		a = (a ^ uint64(v[0])) * p
		b = (b ^ uint64(v[1])) * p
		c = (c ^ uint64(v[2])) * p
		d = (d ^ uint64(v[3])) * p
	}
	for _, x := range v {
		a = (a ^ uint64(x)) * p
	}
	return KeyFinish(a, b, c, d)
}

// KeyPrime is the multiplier of VecKey's chains, the 64-bit FNV prime.
const KeyPrime = 0x100000001b3

// KeySeed is the start of VecKey's chain c (0..3) for a vector of n
// lanes: n for chain 0, c for the others.
func KeySeed(n, c int) uint64 {
	if c == 0 {
		return uint64(n)
	}
	return uint64(c)
}

// KeyFinish combines VecKey's four chains into the digest.
func KeyFinish(a, b, c, d uint64) uint64 {
	return digest.Mix64(a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48))
}

// RowKey combines the digests of a row's DIV and DKV into its noise key.
// It is asymmetric, so swapping the operands changes the key.
func RowKey(divKey, dkvKey uint64) uint64 { return divKey ^ digest.Mix64(dkvKey) }
