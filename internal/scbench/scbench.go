// Package scbench defines the SC-kernel benchmark bodies shared by the
// `go test -bench` suite (internal/sckernel wraps them as standard
// benchmarks) and cmd/benchsc, which runs them through
// testing.Benchmark to emit BENCH_sc.json — the packed-vs-scalar
// trajectory the CI speedup gate reads.
//
// The smoke shape is a fixed contract: the paper operating point (8-bit
// streams, VDPE size 176) with a 6-chunk operand vector, so the dot
// exercises the chunked psum reduction, the sign steering and the ADC
// conversion exactly as serving does. Changing the shape invalidates
// the ns/op trajectory, so treat it like a golden value.
package scbench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/sckernel"
)

// Smoke shapes. The paper point is the serving operating point: 8-bit
// streams, VDPE size 176, vector spanning 6 psum chunks, a micro-batch
// the size of the serving default MaxBatch. The gated stream-scaling
// point runs the same geometry at the core's maximum stream precision
// (B=12, 4096-bit streams): the packed kernels are O(1) words per lane
// while the scalar stream walk is O(2^B/64), so this is the shape where
// the packed plane's structural advantage must show — the CI speedup
// floor applies here.
const (
	smokeBits  = 8
	gateBits   = 12
	smokeN     = 176
	smokeLen   = 6 * smokeN
	smokeBatch = 8
)

// Config returns the paper-point benchmark configuration.
func Config() core.Config {
	return configAt(smokeBits)
}

// GateConfig returns the gated stream-scaling configuration.
func GateConfig() core.Config {
	return configAt(gateBits)
}

func configAt(bits int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Bits = bits
	cfg.N = smokeN
	cfg.M = 4
	cfg.ADCSeed = 1
	return cfg
}

// operandsAt draws one deterministic operand pair for precision bits.
func operandsAt(bits int) (div, dkv []int) {
	rng := rand.New(rand.NewSource(9))
	scale := 1 << uint(bits)
	div = make([]int, smokeLen)
	dkv = make([]int, smokeLen)
	for i := range div {
		div[i] = rng.Intn(scale + 1)
		dkv[i] = rng.Intn(2*scale+1) - scale
	}
	return div, dkv
}

// operands draws the paper-point operand pair.
func operands() (div, dkv []int) { return operandsAt(smokeBits) }

// ScalarDot times the scalar reference plane: quant.SconnaEngine over
// core.VDPC, per-lane stream AND+popcount through the OSM LUT vectors.
func ScalarDot(b *testing.B) {
	e, err := quant.NewSconnaEngine(Config())
	if err != nil {
		b.Fatal(err)
	}
	div, dkv := operands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dot(div, dkv)
	}
}

// PackedDot times the word-packed kernel engine on the identical shape
// and configuration; results are bit-identical to ScalarDot.
func PackedDot(b *testing.B) {
	e, err := sckernel.New(Config())
	if err != nil {
		b.Fatal(err)
	}
	div, dkv := operands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dot(div, dkv)
	}
}

// PackedDotBatch times Engine.DotRows over a serving-sized micro-batch
// of flat operand rows sharing one weight vector (the conv inner loop's
// engine-facing shape); ns/op is per call, i.e. smokeBatch dots.
func PackedDotBatch(b *testing.B) {
	e, err := sckernel.New(Config())
	if err != nil {
		b.Fatal(err)
	}
	_, dkv := operands()
	rows := make([]int, smokeBatch*smokeLen)
	rng := rand.New(rand.NewSource(10))
	scale := 1 << smokeBits
	for i := range rows {
		rows[i] = rng.Intn(scale + 1)
	}
	// The lowering digests each row once per layer, not once per call.
	keys := make([]uint64, smokeBatch)
	for i := range keys {
		keys[i] = core.VecKey(rows[i*smokeLen : (i+1)*smokeLen])
	}
	out := make([]int, smokeBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DotRows(rows, dkv, keys, out)
	}
}

// KernelCountsPacked times the raw packed count kernel (no ADC, no
// chunking): the prefix-popcount fast path over one VDPE-sized vector.
func KernelCountsPacked(b *testing.B) {
	p := sckernel.PlaneFor(smokeBits)
	div, dkv := operands()
	div, dkv = div[:smokeN], dkv[:smokeN]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.DotCounts(div, dkv); err != nil {
			b.Fatal(err)
		}
	}
}

// ScalarDotMaxB times the scalar plane at the gated stream-scaling
// point: identical geometry to ScalarDot with 4096-bit streams, so each
// lane's AndPopCount walks 64 words.
func ScalarDotMaxB(b *testing.B) {
	e, err := quant.NewSconnaEngine(GateConfig())
	if err != nil {
		b.Fatal(err)
	}
	div, dkv := operandsAt(gateBits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dot(div, dkv)
	}
}

// PackedDotMaxB times the packed engine at the gated stream-scaling
// point; the CI floor is ScalarDotMaxB ns / PackedDotMaxB ns.
func PackedDotMaxB(b *testing.B) {
	e, err := sckernel.New(GateConfig())
	if err != nil {
		b.Fatal(err)
	}
	div, dkv := operandsAt(gateBits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dot(div, dkv)
	}
}

// KernelCountsGeneric times the generator-generic fused word kernel on
// the same vector — the fallback the prefix path is measured against.
func KernelCountsGeneric(b *testing.B) {
	p := sckernel.PlaneFor(smokeBits)
	div, dkv := operands()
	div, dkv = div[:smokeN], dkv[:smokeN]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.DotCountsGeneric(div, dkv); err != nil {
			b.Fatal(err)
		}
	}
}
