package sckernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/quant"
)

// convGeom is one conv tile of the DotConv sweep: c planes of h x w
// with a zero border of pad, a k x k window at stride, and nd DKVs.
type convGeom struct{ c, k, stride, pad, h, w, nd int }

// convGeoms spans the served model's three conv tiles (16x16, 8x8 and
// 4x4 outputs at stride 1 with S = 9, 36, 72), output widths that are
// and are not multiples of 4 (DotConv's gather takes only the former),
// stride 2, K from 1 to 5 with S below 4 and not a multiple of 4 (the
// digest's tail lanes), row counts below, at and past the SIMD kernel's
// 16-row groups, and S past the VDPE size (chunk seams; testCfg's N is
// 8).
var convGeoms = []convGeom{
	{1, 3, 1, 1, 16, 16, 4},
	{4, 3, 1, 1, 8, 8, 8},
	{8, 3, 1, 1, 4, 4, 16},
	{2, 3, 1, 1, 6, 7, 5},
	{3, 2, 1, 0, 5, 5, 3},
	{1, 5, 1, 2, 9, 12, 2},
	{2, 3, 2, 1, 8, 8, 3},
	{3, 1, 1, 0, 4, 8, 6},
	{1, 1, 1, 0, 1, 4, 3},
	{2, 3, 1, 1, 3, 4, 5},
	{1, 2, 1, 0, 2, 3, 2},
	{5, 4, 1, 1, 7, 9, 1},
}

// convOperandKinds names DotConv's operand draws: the quantizer's range
// and its top, the full operand range (a plane value may reach 2^B),
// quantizer-range tiles with one plane value at 2^B or one weight at
// -2^B (the SIMD kernel must leave both to the portable one), and a
// negative plane value, which must panic as DotTile does.
var convOperandKinds = []string{"quant", "quant-top", "random", "plane-at-scale", "weight-at-minus-scale", "negative-plane"}

// convOperands draws a conv tile of geometry g and its DKVs at precision
// bits: the planes' interiors by kind, their borders zero.
func convOperands(rng *rand.Rand, bits int, g convGeom, kind string) (*quant.ConvTile, []int) {
	hi := 1<<uint(bits) - 1
	ph, pw := g.h+2*g.pad, g.w+2*g.pad
	t := &quant.ConvTile{
		Planes: make([]int, g.c*ph*pw),
		C:      g.c, PH: ph, PW: pw, K: g.k, Stride: g.stride,
		OH: (ph-g.k)/g.stride + 1, OW: (pw-g.k)/g.stride + 1,
	}
	var inner []int // plane indices inside the border
	for ic := range g.c {
		for y := range g.h {
			for x := range g.w {
				i := (ic*ph+y+g.pad)*pw + x + g.pad
				inner = append(inner, i)
				switch kind {
				case "quant-top":
					t.Planes[i] = hi
				case "random":
					t.Planes[i] = rng.Intn(hi + 2)
				default:
					if rng.Float64() >= 0.4 {
						t.Planes[i] = rng.Intn(hi + 1)
					}
				}
			}
		}
	}
	dkvs := make([]int, g.nd*t.S())
	for i := range dkvs {
		if kind == "quant-top" {
			dkvs[i] = hi * (2*rng.Intn(2) - 1)
		} else {
			dkvs[i] = rng.Intn(2*hi+1) - hi
		}
	}
	switch kind {
	case "plane-at-scale":
		t.Planes[inner[rng.Intn(len(inner))]] = hi + 1
	case "negative-plane":
		t.Planes[inner[rng.Intn(len(inner))]] = -1
	case "weight-at-minus-scale":
		dkvs[rng.Intn(len(dkvs))] = -hi - 1
	}
	return t, dkvs
}

// checkDotConv runs DotConv on conv against DotTile over the reference
// gather on ref, and reports a mismatch in a result or in whether they
// panic, and whether DotConv took its own gather.
func checkDotConv(conv, ref *Engine, t *quant.ConvTile, dkvs []int) (gathered bool, err error) {
	s, nr := t.S(), t.OH*t.OW
	nd := len(dkvs) / s
	rows := append([]int(nil), t.Rows()...)
	got, want := make([]int, nr*nd), make([]int, nr*nd)
	conv.offs = nil // only DotConv's gather grows it
	convPanic := catch(func() { conv.DotConv(t, dkvs, conv.PrepareDKVs(dkvs, s), got) })
	tilePanic := catch(func() { ref.DotTile(rows, dkvs, s, want) })
	if (convPanic == nil) != (tilePanic == nil) {
		return false, fmt.Errorf("DotConv panic %v, DotTile panic %v", convPanic, tilePanic)
	}
	if convPanic != nil {
		return false, nil
	}
	for k := range want {
		if got[k] != want[k] {
			return false, fmt.Errorf("row %d DKV %d: DotConv %d != DotTile %d", k%nr, k/nr, got[k], want[k])
		}
	}
	return len(conv.offs) > 0, nil
}

// TestDotConvMatchesDotTile: DotConv on a conv tile equals DotTile over
// the tile's reference gather bit for bit, or both panic — on the noisy
// and the ideal-ADC engine at B = 2, 4, 8 and 12 and the VDPE sizes 8
// and 64, over convGeoms with every kind of convOperandKinds, on
// consecutive calls of one engine. DotConv must take its own gather
// exactly where the SIMD kernel runs (B <= 8, quantizer-range operands,
// at least simdMinRows rows) on a stride-1 tile whose OW is a multiple
// of 4. TestDotConvPortableKernel runs it again with the SIMD kernel
// off.
func TestDotConvMatchesDotTile(t *testing.T) {
	for _, bits := range []int{2, 4, 8, 12} {
		for _, n := range []int{8, 64} {
			for _, ideal := range []bool{false, true} {
				cfg := testCfg(bits, ideal)
				cfg.N = n
				conv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var _ quant.ConvDotter = conv
				rng := rand.New(rand.NewSource(int64(17*bits + n)))
				for _, g := range convGeoms {
					for _, kind := range convOperandKinds {
						tile, dkvs := convOperands(rng, bits, g, kind)
						where := fmt.Sprintf("B=%d N=%d ideal=%v %+v %s", bits, n, ideal, g, kind)
						gathered, err := checkDotConv(conv, ref, tile, dkvs)
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						inRange := kind == "quant" || kind == "quant-top" || (kind == "random" && belowScale(tile.Planes, nil, bits))
						want := useSIMD && bits <= 8 && inRange && tile.OH*tile.OW >= simdMinRows && g.stride == 1 && tile.OW%4 == 0
						if gathered != want {
							t.Fatalf("%s: DotConv gathered the tile itself: %v, want %v", where, gathered, want)
						}
					}
				}
			}
		}
	}
}

// TestDotConvPortableKernel runs the DotConv sweep with the SIMD kernel
// off: every tile then goes through the reference gather to the
// portable kernel, on the prepared DKVs.
func TestDotConvPortableKernel(t *testing.T) {
	forcePortable(t)
	TestDotConvMatchesDotTile(t)
}
