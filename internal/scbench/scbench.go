// Package scbench defines the SC-kernel benchmark bodies shared by the
// `go test -bench` suite (internal/sckernel wraps them as standard
// benchmarks) and cmd/benchsc, which runs them through
// testing.Benchmark to emit BENCH_sc.json — the trajectory of
// sckernel.Engine (its per-vector Dot and its layer-tile DotTile)
// against the scalar reference quant.SconnaEngine, whose ratio the CI
// speedup gate reads.
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
// (B=12, 4096-bit streams): the engine's closed-form count is O(1) per
// lane while the scalar stream walk is O(2^B/64), so this is the shape
// where its structural advantage must show — the CI speedup floor
// applies here.
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

// PackedDot times the packed engine (sckernel.Engine) on the identical shape
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

// PackedDotBatch times Engine.DotTile over a serving-sized tile: a
// micro-batch of flat operand rows against one weight vector (the
// engine-facing shape of a one-channel tile); ns/op is per call, i.e.
// smokeBatch dots, each row digested inside the call. Like PackedTile,
// its operands span the range quant feeds a served model — row lanes in
// [0, 2^B-1], weights in [-(2^B-1), 2^B-1] — so the timed kernel is the
// one a served tile of this shape takes (operands() reaches 2^B, which
// sends a tile to the portable kernel).
func PackedDotBatch(b *testing.B) {
	e, err := sckernel.New(Config())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	top := 1<<smokeBits - 1
	rows := make([]int, smokeBatch*smokeLen)
	for i := range rows {
		rows[i] = rng.Intn(top + 1)
	}
	dkv := make([]int, smokeLen)
	for i := range dkv {
		dkv[i] = rng.Intn(2*top+1) - top
	}
	out := make([]int, smokeBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DotTile(rows, dkv, smokeLen, out)
	}
}

// tileShapes are the served model's three conv layer tiles (rows x DKVs
// x S lanes, one example): the width-4 small CNN's 16x16, 8x8 and 4x4
// output maps against 4, 8 and 16 output channels over full 3x3
// windows of 1, 4 and 8 input channels.
var tileShapes = [...]struct{ rows, dkvs, s int }{
	{256, 4, 9},
	{64, 8, 36},
	{16, 16, 72},
}

// tileConfig returns the serving benchmark's SC engine configuration:
// the paper precision on 64-lane VDPEs, one per VDPC, ADC seed 2023.
func tileConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Bits = smokeBits
	cfg.N = 64
	cfg.M = 1
	cfg.ADCSeed = 2023
	return cfg
}

// PackedTile times Engine.DotTile over the served model's three conv
// tiles (tileShapes) with a noisy ADC: ns/op is one example's conv
// layers, the kernel and the keyed conversion without the rest of the
// forward pass. Operands span the range quant feeds a served model, so
// the timed path is the served one: row lanes in [0, 2^B-1], zero with
// probability 0.4 as a ReLU leaves them, and weights in
// [-(2^B-1), 2^B-1] (quantizeActs and quantizeSigned clamp to those).
func PackedTile(b *testing.B) {
	e, err := sckernel.New(tileConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	top := 1<<smokeBits - 1
	type tile struct{ rows, dkvs, out []int }
	tiles := make([]tile, len(tileShapes))
	for t, sh := range tileShapes {
		rows := make([]int, sh.rows*sh.s)
		for i := range rows {
			if rng.Float64() >= 0.4 {
				rows[i] = rng.Intn(top + 1)
			}
		}
		dkvs := make([]int, sh.dkvs*sh.s)
		for i := range dkvs {
			dkvs[i] = rng.Intn(2*top+1) - top
		}
		tiles[t] = tile{rows, dkvs, make([]int, sh.rows*sh.dkvs)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t, sh := range tileShapes {
			e.DotTile(tiles[t].rows, tiles[t].dkvs, sh.s, tiles[t].out)
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
