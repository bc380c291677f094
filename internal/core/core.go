// Package core implements the functional plane of the SCONNA accelerator —
// the paper's primary contribution (Section IV): Optical Stochastic
// Multipliers (OSMs) built from a lookup-table peripheral and an Optical
// AND Gate, cascaded per wavelength into Vector-Dot-Product Elements
// (VDPEs) whose filter MRRs steer signed product streams onto two
// Photo-Charge Accumulators, grouped into Vector-Dot-Product Cores (VDPCs).
//
// This package computes *values* through the device models; timing, energy
// and area live in internal/accel (the performance plane). Both planes
// share the same device configurations.
package core

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/pca"
	"repro/internal/photonics"
	"repro/internal/sc"
)

// Config selects the functional operating point of a SCONNA VDPC.
type Config struct {
	// Bits is the operand precision B; streams carry 2^B bits.
	Bits int
	// N is the VDPE size: OSMs (wavelengths) per VDPE.
	N int
	// M is the number of VDPEs per VDPC.
	M int
	// FWHMNM is the OAG resonance linewidth (<= 0.8 nm per Sec. V-A).
	FWHMNM float64
	// ChannelSpacingNM is the DWDM inter-wavelength gap (0.25 nm).
	ChannelSpacingNM float64
	// BaseWavelengthNM anchors the DWDM grid (1550 nm).
	BaseWavelengthNM float64
	// PCA is the physical accumulator operating point (capacity,
	// TIR circuit, discharge). Its MaxOnes is derived from N and Bits.
	PCA pca.Config
	// ADCMAPEPct is the converter's mean absolute percentage error
	// applied to each PCA's accumulated count (1.3% in Sec. V-C; the TIR
	// amplifier auto-ranges the accumulation into the ADC window, so the
	// error is relative to the result, which is how the paper applies it
	// in its accuracy study). It must lie in [0, MaxADCMAPEPct]; zero on
	// a noisy converter selects the paper's 1.3%.
	ADCMAPEPct float64
	// ADCSeed keys the ADC noise: with the operands it fixes every
	// conversion's error (see ADC).
	ADCSeed int64
	// IdealADC disables ADC noise (exact ones counts pass through); used
	// to isolate stochastic-stream error from converter error in the
	// accuracy studies.
	IdealADC bool
}

// DefaultConfig returns the paper's SCONNA operating point: B=8, N=M=176,
// BR=30 Gbps, FWHM=0.8 nm, 0.25 nm channel spacing.
func DefaultConfig() Config {
	return Config{
		Bits:             8,
		N:                176,
		M:                176,
		FWHMNM:           0.8,
		ChannelSpacingNM: 0.25,
		BaseWavelengthNM: 1550,
		PCA:              pca.DefaultConfig(),
		ADCMAPEPct:       1.3,
		ADCSeed:          1,
	}
}

// OSM is one Optical Stochastic Multiplier: the LUT/serializer peripheral
// feeding an Optical AND Gate at a dedicated wavelength (Fig. 5).
type OSM struct {
	// Wavelength is the DWDM channel this OSM modulates, in nm.
	Wavelength float64
	// Gate is the underlying OAG device model.
	Gate *photonics.OAG

	lut *sc.OSMLUT
}

// Multiply performs the stochastic multiplication of input value ib and
// weight magnitude wb (both in [0, 2^B]) and returns the ones count of the
// product stream — the charge quantum count its wavelength contributes to
// the PCA.
func (o *OSM) Multiply(ib, wb int) int { return o.lut.MulInts(ib, wb) }

// MultiplyStreams returns the full product stream, for callers that need
// the bit-level waveform (examples, device validation).
func (o *OSM) MultiplyStreams(ib, wb int) sc.SN {
	iv, wv := o.lut.Lookup(ib, wb)
	return sc.Mul(iv, wv)
}

// MultiplyTransient drives the OAG device model with the two serialized
// streams at bitrate br and decodes the drop-port waveform back to bits.
// It is the device-accurate (slow) path used to validate that the optical
// gate reproduces the logical AND at speed.
func (o *OSM) MultiplyTransient(ib, wb int, br float64, samplesPerBit int) *bitstream.Vector {
	iv, wv := o.lut.Lookup(ib, wb)
	trace := o.Gate.Transient(iv.Bits.Bools(), wv.Bits.Bools(), br, samplesPerBit)
	bits := o.Gate.DecodeTransient(trace, samplesPerBit)
	return bitstream.FromBools(bits)
}

// SignedResult is a VDPE output: the ADC-converted estimate alongside the
// exact (pre-ADC) accumulation, letting callers measure converter error.
type SignedResult struct {
	// Est is the VDP estimate in integer product units (sum of i*w),
	// reconstructed from the two converted PCA counts.
	Est int
	// Exact is the pre-ADC accumulation in the same units (still subject
	// to the <=1-bit-per-lane stochastic stream quantization).
	Exact int
	// PosOnes, NegOnes are the raw accumulated counts of the two PCAs.
	PosOnes, NegOnes int
}

// VDPE is one vector-dot-product element: a cascade of N OSMs, a filter
// MRR bank steering by weight sign, and a pair of PCAs (Fig. 4(a)).
type VDPE struct {
	cfg     Config
	osms    []*OSM
	adc     *ADC
	maxOnes int
}

// NewVDPE builds a VDPE for cfg. It validates that N fits the DWDM grid
// within one FSR and that the converter accepts cfg (see NewADC).
func NewVDPE(cfg Config) (*VDPE, error) {
	if cfg.Bits < 1 || cfg.Bits > 12 {
		return nil, fmt.Errorf("core: unsupported precision B=%d", cfg.Bits)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("core: VDPE size N=%d must be positive", cfg.N)
	}
	probe := photonics.NewMRR(cfg.BaseWavelengthNM, cfg.FWHMNM)
	if maxN := probe.ChannelCount(cfg.ChannelSpacingNM); cfg.N > maxN {
		return nil, fmt.Errorf("core: N=%d exceeds FSR-limited channel count %d", cfg.N, maxN)
	}
	adc, err := NewADC(cfg)
	if err != nil {
		return nil, err
	}
	lut := sc.NewOSMLUT(cfg.Bits)
	v := &VDPE{cfg: cfg, adc: adc}
	// The PCA capacity requirement is defined by this VDPE: it must
	// accumulate up to N*2^B ones (Sec. V-C).
	v.maxOnes = cfg.N * (1 << uint(cfg.Bits))
	for i := 0; i < cfg.N; i++ {
		gate := photonics.NewOAG(cfg.FWHMNM)
		lambda := cfg.BaseWavelengthNM - float64(i)*cfg.ChannelSpacingNM
		gate.LambdaInNM = lambda
		gate.Ring.ResonanceNM = lambda - 2*gate.PNShiftNM
		v.osms = append(v.osms, &OSM{Wavelength: lambda, Gate: gate, lut: lut})
	}
	return v, nil
}

// N returns the VDPE size.
func (v *VDPE) N() int { return v.cfg.N }

// OSMs exposes the per-wavelength multipliers (read-only use intended).
func (v *VDPE) OSMs() []*OSM { return v.osms }

// Dot computes the signed VDP of a decomposed input vector (DIV, unsigned
// values in [0,2^B]) against a decomposed kernel vector (DKV, signed values
// in [-2^B,2^B]), both at most N points, through the OSM cascade and the
// PCA pair. Shorter vectors leave the remaining OSM lanes dark. The ADC
// error is keyed by the operands (see ADC), so equal operands always
// convert equally.
func (v *VDPE) Dot(div []int, dkv []int) (SignedResult, error) {
	return v.dot(div, dkv, nil)
}

// dot is Dot with the lanes in faults pinned (nil: none): a stuck-dark
// lane contributes zero ones, a stuck-lit lane a full stream of ones to
// its sign's accumulator.
func (v *VDPE) dot(div, dkv []int, faults map[int]FaultKind) (SignedResult, error) {
	pos, neg, err := v.counts(div, dkv, faults)
	if err != nil {
		return SignedResult{}, err
	}
	scale := 1 << uint(v.cfg.Bits)
	return SignedResult{
		Est:     v.adc.Convert(v.adc.OperandWord(div, dkv), 0, pos, neg, scale),
		Exact:   (pos - neg) * scale,
		PosOnes: pos,
		NegOnes: neg,
	}, nil
}

// counts runs the OSM cascade and the sign-steered PCA pair — the
// pre-ADC half of dot — with the lanes in faults pinned.
func (v *VDPE) counts(div, dkv []int, faults map[int]FaultKind) (posOnes, negOnes int, err error) {
	if len(div) != len(dkv) {
		return 0, 0, fmt.Errorf("core: DIV/DKV length mismatch %d vs %d", len(div), len(dkv))
	}
	if len(div) > v.cfg.N {
		return 0, 0, fmt.Errorf("core: vector size %d exceeds VDPE size %d", len(div), v.cfg.N)
	}
	scale := 1 << uint(v.cfg.Bits)
	for i := range div {
		wb := dkv[i]
		neg := wb < 0
		if neg {
			wb = -wb
		}
		if div[i] < 0 || div[i] > scale || wb > scale {
			return 0, 0, fmt.Errorf("core: operand out of range at lane %d (i=%d w=%d)", i, div[i], dkv[i])
		}
		// The filter MRR steers this lane's product stream by sign bit.
		var c int
		switch kind, faulty := faults[i]; {
		case faulty && kind == StuckDark:
		case faulty && kind == StuckLit:
			c = scale
		default:
			c = v.osms[i].Multiply(div[i], wb)
		}
		if neg {
			negOnes += c
		} else {
			posOnes += c
		}
	}
	if posOnes > v.maxOnes || negOnes > v.maxOnes {
		return 0, 0, fmt.Errorf("core: accumulation %d/%d exceeds PCA capacity %d", posOnes, negOnes, v.maxOnes)
	}
	return posOnes, negOnes, nil
}

// VDPC is a vector-dot-product core: M VDPEs fed from one DWDM laser
// block through the aggregation split (Fig. 4(a)).
type VDPC struct {
	cfg   Config
	vdpes []*VDPE
	adc   *ADC
}

// NewVDPC builds a VDPC with M VDPEs.
func NewVDPC(cfg Config) (*VDPC, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("core: VDPC size M=%d must be positive", cfg.M)
	}
	c := &VDPC{cfg: cfg}
	for i := 0; i < cfg.M; i++ {
		v, err := NewVDPE(cfg)
		if err != nil {
			return nil, err
		}
		c.vdpes = append(c.vdpes, v)
	}
	adc, err := NewADC(cfg)
	if err != nil {
		return nil, err
	}
	c.adc = adc
	return c, nil
}

// M returns the VDPE count.
func (c *VDPC) M() int { return len(c.vdpes) }

// VDPE returns the i-th element.
func (c *VDPC) VDPE(i int) *VDPE { return c.vdpes[i] }

// DotBatch distributes a batch of (DIV, DKV) pairs round-robin across the
// M VDPEs and returns one result per pair.
func (c *VDPC) DotBatch(divs, dkvs [][]int) ([]SignedResult, error) {
	if len(divs) != len(dkvs) {
		return nil, fmt.Errorf("core: batch length mismatch %d vs %d", len(divs), len(dkvs))
	}
	out := make([]SignedResult, len(divs))
	for i := range divs {
		r, err := c.vdpes[i%len(c.vdpes)].Dot(divs[i], dkvs[i])
		if err != nil {
			return nil, fmt.Errorf("core: pair %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// DotLarge computes a full-length VDP of size S > N by decomposing the
// vectors into ceil(S/N) DIV/DKV chunks (Sec. II-B), computing each chunk
// on a VDPE, and reducing the partial sums digitally — the psum reduction
// the paper's Section III-A analyses. It returns the reduced estimate, the
// exact pre-ADC value, and the chunk count C. The chunks convert in order
// on one noise row keyed by the full operands, so the result does not
// depend on M or on which VDPE ran a chunk.
func (c *VDPC) DotLarge(input []int, kernel []int) (est, exact, chunks int, err error) {
	if len(input) != len(kernel) {
		return 0, 0, 0, fmt.Errorf("core: vector length mismatch %d vs %d", len(input), len(kernel))
	}
	word := c.adc.OperandWord(input, kernel)
	n := c.cfg.N
	scale := 1 << uint(c.cfg.Bits)
	for off := 0; off < len(input); off += n {
		end := min(off+n, len(input))
		pos, neg, derr := c.vdpes[chunks%len(c.vdpes)].counts(input[off:end], kernel[off:end], nil)
		if derr != nil {
			return 0, 0, 0, derr
		}
		est += c.adc.Convert(ChunkWord(word, chunks), chunks, pos, neg, scale)
		exact += (pos - neg) * scale
		chunks++
	}
	return est, exact, chunks, nil
}

// ExactDot returns the true integer dot product for reference.
func ExactDot(a, b []int) int {
	s := 0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
