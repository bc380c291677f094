package quant

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mapper"
)

// convTileCases are the geometries of the ConvTile pins: K from 1 to 5,
// stride 1 and 2, padding 0 to 2, one and several channels, output
// widths that are and are not multiples of 4.
var convTileCases = []struct{ c, k, stride, pad, h, w int }{
	{1, 3, 1, 1, 16, 16},
	{4, 3, 1, 1, 8, 8},
	{3, 1, 1, 0, 5, 7},
	{2, 5, 1, 2, 9, 6},
	{2, 3, 2, 1, 8, 8},
	{3, 2, 2, 0, 7, 9},
	{1, 4, 1, 1, 3, 5},
	{2, 5, 2, 2, 5, 5},
}

// convTileOf returns the tile of the quantized c x h x w planes qx
// bordered by pad, as the lowering builds it.
func convTileOf(qx []int, c, k, stride, pad, h, w int) *ConvTile {
	bs := NewBatchScratch()
	ph, pw := h+2*pad, w+2*pad
	return &ConvTile{
		Planes: slices.Clone(bs.padPlanes(qx, c, h, w, pad)),
		C:      c, PH: ph, PW: pw, K: k, Stride: stride,
		OH: (ph-k)/stride + 1, OW: (pw-k)/stride + 1,
	}
}

// TestConvTileRowsMatchExtractDIV pins the reference gather: row
// oy*OW+ox of ConvTile.Rows is the DIV the mapper extracts for output
// (oy, ox), zero-padded taps included, on every convTileCases geometry.
func TestConvTileRowsMatchExtractDIV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range convTileCases {
		qx := make([]int, tc.c*tc.h*tc.w)
		for i := range qx {
			qx[i] = 1 + rng.Intn(255)
		}
		tile := convTileOf(qx, tc.c, tc.k, tc.stride, tc.pad, tc.h, tc.w)
		m := mapper.Conv{InC: tc.c, H: tc.h, W: tc.w, OutC: 1, K: tc.k, Stride: tc.stride, Pad: tc.pad}
		if tile.OH != m.OutSize(tc.h) || tile.OW != m.OutSize(tc.w) || tile.S() != m.S() {
			t.Fatalf("%+v: tile %dx%d of %d lanes, mapper %dx%d of %d", tc, tile.OH, tile.OW, tile.S(), m.OutSize(tc.h), m.OutSize(tc.w), m.S())
		}
		rows, s := tile.Rows(), tile.S()
		for oy := range tile.OH {
			for ox := range tile.OW {
				p := oy*tile.OW + ox
				if want := m.ExtractDIV(qx, 0, oy, ox); !slices.Equal(rows[p*s:(p+1)*s], want) {
					t.Fatalf("%+v: row (%d, %d) = %v, ExtractDIV %v", tc, oy, ox, rows[p*s:(p+1)*s], want)
				}
			}
		}
	}
}

// TestExactDotConvMatchesDotTile: the exact engine's conv entry equals
// DotTile over the tile's reference gather bit for bit, on every
// convTileCases geometry with DKV counts around the micro-kernel's
// groups of four — quantizer-range operands, planes and weights near
// 2^31 whose sums leave int32 (the packed GEMM must step aside),
// negative plane values, and all-zero planes.
func TestExactDotConvMatchesDotTile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	small := func() int { return rng.Intn(256) }
	weight := func() int { return rng.Intn(511) - 255 }
	huge := func() int { return 1<<31 - 1 - rng.Intn(4) }
	zero := func() int { return 0 }
	kinds := []struct {
		name       string
		plane, wgt func() int
	}{
		{"quant", small, weight},
		{"huge weights", small, func() int { return huge() * (2*rng.Intn(2) - 1) }},
		{"huge planes", huge, weight},
		{"negative planes", weight, weight},
		{"zero planes", zero, weight},
	}
	for _, tc := range convTileCases {
		for _, nd := range []int{1, 4, 7, 8} {
			for _, kind := range kinds {
				qx := make([]int, tc.c*tc.h*tc.w)
				for i := range qx {
					qx[i] = kind.plane()
				}
				tile := convTileOf(qx, tc.c, tc.k, tc.stride, tc.pad, tc.h, tc.w)
				s, nr := tile.S(), tile.OH*tile.OW
				dkvs := make([]int, nd*s)
				for i := range dkvs {
					dkvs[i] = kind.wgt()
				}
				want := make([]int, nr*nd)
				ExactEngine{}.DotTile(slices.Clone(tile.Rows()), dkvs, s, want)
				got := make([]int, nr*nd)
				ExactEngine{}.DotConv(tile, dkvs, ExactEngine{}.PrepareDKVs(dkvs, s), got)
				where := fmt.Sprintf("%+v nd=%d %s", tc, nd, kind.name)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s: row %d DKV %d: DotConv %d != DotTile %d", where, k%nr, k/nr, got[k], want[k])
					}
				}
			}
		}
	}
}
