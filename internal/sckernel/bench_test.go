package sckernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/scbench"
	"repro/internal/sckernel"
)

// Standard-suite wrappers over the shared bench bodies; cmd/benchsc runs
// the same bodies through testing.Benchmark for BENCH_sc.json.

func BenchmarkSCScalarDot(b *testing.B)      { scbench.ScalarDot(b) }
func BenchmarkSCPackedDot(b *testing.B)      { scbench.PackedDot(b) }
func BenchmarkSCPackedDotBatch(b *testing.B) { scbench.PackedDotBatch(b) }
func BenchmarkSCPackedTile(b *testing.B)     { scbench.PackedTile(b) }
func BenchmarkSCScalarDotMaxB(b *testing.B)  { scbench.ScalarDotMaxB(b) }
func BenchmarkSCPackedDotMaxB(b *testing.B)  { scbench.PackedDotMaxB(b) }

// BenchmarkSCConvTile times one example's three conv tiles of the served
// model — S = 9 x 256 rows x 4 DKVs (1x16x16 input), 36 x 64 x 8
// (4x8x8) and 72 x 16 x 16 (8x4x4), 3x3 windows at stride 1 over a
// zero border of 1 — on the serving SC engine (B = 8, N = 64, M = 1,
// ADC seed 2023): "dotconv" through the conv entry on prepared weight
// rows, "rows+dottile" through the reference gather and the
// materialized DotTile, as the lowering ran them before the conv entry.
// Plane values are quantizer-range, zero with probability 0.4 as a ReLU
// leaves them, so both legs time the SIMD kernel.
func BenchmarkSCConvTile(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Bits, cfg.N, cfg.M, cfg.ADCSeed = 8, 64, 1, 2023
	e, err := sckernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	top := 1<<cfg.Bits - 1
	type conv struct {
		t    *quant.ConvTile
		dkvs []int
		w    any
		out  []int
	}
	var convs []conv
	for _, g := range []struct{ c, hw, nd int }{{1, 16, 4}, {4, 8, 8}, {8, 4, 16}} {
		p := g.hw + 2
		t := &quant.ConvTile{Planes: make([]int, g.c*p*p), C: g.c, PH: p, PW: p, K: 3, Stride: 1, OH: g.hw, OW: g.hw}
		for ic := range g.c {
			for y := 1; y <= g.hw; y++ {
				for x := 1; x <= g.hw; x++ {
					if rng.Float64() >= 0.4 {
						t.Planes[(ic*p+y)*p+x] = rng.Intn(top + 1)
					}
				}
			}
		}
		dkvs := make([]int, g.nd*t.S())
		for i := range dkvs {
			dkvs[i] = rng.Intn(2*top+1) - top
		}
		convs = append(convs, conv{t, dkvs, e.PrepareDKVs(dkvs, t.S()), make([]int, g.hw*g.hw*g.nd)})
	}
	b.Run("dotconv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range convs {
				e.DotConv(c.t, c.dkvs, c.w, c.out)
			}
		}
	})
	b.Run("rows+dottile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range convs {
				e.DotTile(c.t.Rows(), c.dkvs, c.t.S(), c.out)
			}
		}
	})
}
