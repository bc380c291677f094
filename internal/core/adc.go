package core

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/digest"
)

// ADC is the keyed converter model shared by every SC dot engine (the
// scalar VDPE/VDPC here and the packed sckernel.Engine), so their
// estimates agree bit for bit.
//
// Each PCA's accumulated count passes through its own converter with a
// zero-mean Gaussian relative error whose mean absolute value is
// ADCMAPEPct (Sec. V-C). The draws are keyed, not streamed: a row (one
// DIV·DKV product, however many psum chunks it decomposes into) draws
// from a splitmix64 stream seeded by Mix64(ADCSeed ^ rowKey), one normal
// per nonzero PCA count in chunk order (positive PCA first), where the
// row key digests the two operand vectors (RowKey). A zero count reads
// zero and draws nothing. A conversion is therefore a pure function of
// the configuration and the operands: independent of call order, of
// which VDPE runs a chunk, and of every other conversion. Keying by
// content rather than by position (example, layer, pixel) lets a bare
// Dot, which sees only operands, agree with every batched path; the
// price is that two conversions of identical operands share one error
// draw.
//
// An ADC carries the draw state of the row in progress, so it belongs to
// one goroutine at a time, like the engine that holds it.
type ADC struct {
	ideal bool
	sigma float64 // relative noise sigma realizing the MAPE
	seed  uint64
	src   splitmix
	rng   *rand.Rand
}

// NewADC builds the converter for cfg. A zero ADCMAPEPct on a noisy
// configuration selects the paper's 1.3%.
func NewADC(cfg Config) *ADC {
	mape := cfg.ADCMAPEPct
	if mape == 0 && !cfg.IdealADC {
		mape = 1.3
	}
	a := &ADC{
		ideal: cfg.IdealADC,
		// E|eps| = sigma*sqrt(2/pi) = MAPE/100.
		sigma: mape / 100 * math.Sqrt(math.Pi/2),
		seed:  uint64(cfg.ADCSeed),
	}
	a.rng = rand.New(&a.src)
	return a
}

// Ideal reports a noise-free converter: Convert passes the exact count
// through and ignores row keys.
func (a *ADC) Ideal() bool { return a.ideal }

// Start begins the noise stream of the row with key rowKey.
func (a *ADC) Start(rowKey uint64) { a.src.s = digest.Mix64(a.seed ^ rowKey) }

// StartRow begins the noise stream of the row (div, dkv), keyed by its
// operands. An ideal converter skips the digest.
func (a *ADC) StartRow(div, dkv []int) {
	if !a.ideal {
		a.Start(RowKey(VecKey(div), VecKey(dkv)))
	}
}

// Convert converts one psum chunk's PCA counts into integer product
// units, drawing the next normal of the current row's stream for each
// nonzero count.
func (a *ADC) Convert(pos, neg, scale int) int {
	if a.ideal {
		return (pos - neg) * scale
	}
	var est float64
	if pos != 0 {
		est = float64(pos) * (1 + a.rng.NormFloat64()*a.sigma)
	}
	if neg != 0 {
		est -= float64(neg) * (1 + a.rng.NormFloat64()*a.sigma)
	}
	return int(math.Round(est)) * scale
}

// VecKey digests one operand vector: its length and every lane value.
// It is the half of a row key a caller can compute once and reuse for
// every DKV the same DIV meets (see quant.RowDotter). Lanes feed four
// independent xor-multiply chains, so the multiplies overlap instead of
// waiting on each other (about 3x faster than one chain).
func VecKey(v []int) uint64 {
	const p = 0x100000001b3 // the 64-bit FNV prime
	a, b, c, d := uint64(len(v)), uint64(1), uint64(2), uint64(3)
	for ; len(v) >= 4; v = v[4:] {
		a = (a ^ uint64(v[0])) * p
		b = (b ^ uint64(v[1])) * p
		c = (c ^ uint64(v[2])) * p
		d = (d ^ uint64(v[3])) * p
	}
	for _, x := range v {
		a = (a ^ uint64(x)) * p
	}
	return digest.Mix64(a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48))
}

// RowKey combines the digests of a row's DIV and DKV into its noise key.
// It is asymmetric, so swapping the operands changes the key.
func RowKey(divKey, dkvKey uint64) uint64 { return divKey ^ digest.Mix64(dkvKey) }

// splitmix is a resettable splitmix64 rand.Source64: Start reseeds it
// per row at the cost of one assignment, and math/rand's NormFloat64
// draws through it.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	x := digest.Mix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return x
}

func (r *splitmix) Int63() int64 { return int64(r.Uint64() >> 1) }

func (r *splitmix) Seed(seed int64) { r.s = uint64(seed) }
