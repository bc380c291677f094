package quant

// ConvTile is one example's convolution tile as the lowering hands it to
// a ConvDotter: the C quantized input planes of one group of the layer
// (all of them for a standard conv, one for a depthwise conv's group),
// each PH x PW with its zero border, channel-major in Planes; and a
// K x K window at stride Stride over OH x OW output pixels, OH =
// (PH-K)/Stride+1 and OW = (PW-K)/Stride+1. Operand row p = oy*OW + ox is
// the window at (oy*Stride, ox*Stride), S = C*K*K lanes in (channel, ky,
// kx) order — the weight-row order, so the DKV of a full window is a
// weight row as stored.
//
// The tile owns the one reference gather, Rows, into a buffer it keeps
// across calls, so an engine without a gather of its own (ExactEngine
// holds no state) can still materialize the block.
type ConvTile struct {
	Planes                       []int
	C, PH, PW, K, Stride, OH, OW int

	rows []int // Rows' block, retained across tiles
}

// S returns the lanes per operand row, C*K*K.
func (t *ConvTile) S() int { return t.C * t.K * t.K }

// Rows gathers the tile's operand block — one S-lane row per output
// pixel, row-major — into the tile's buffer and returns it. Each (c, ky)
// segment of a row is K consecutive values of one plane row. The block
// is valid until the next Rows call on t.
func (t *ConvTile) Rows() []int {
	planes, c, ph, pw := t.Planes, t.C, t.PH, t.PW
	k, st, s, oh, ow := t.K, t.Stride, t.S(), t.OH, t.OW
	t.rows = growInts(t.rows, oh*ow*s)
	rows := t.rows
	for oy := 0; oy < oh; oy++ {
		for ic := 0; ic < c; ic++ {
			for ky := 0; ky < k; ky++ {
				src := planes[(ic*ph+oy*st+ky)*pw:][:pw]
				d := oy*ow*s + (ic*k+ky)*k
				if k == 3 { // the common kernel, unrolled
					for ox := 0; ox < ow; ox++ {
						r, v := rows[d+ox*s:][:3], src[ox*st:][:3]
						r[0], r[1], r[2] = v[0], v[1], v[2]
					}
					continue
				}
				for ox := 0; ox < ow; ox++ {
					copy(rows[d+ox*s:d+ox*s+k], src[ox*st:])
				}
			}
		}
	}
	return rows
}

// ConvDotter is an optional TileDotter capability: a conv tile gathered
// by the engine itself from the quantized planes (an implicit GEMM),
// against weight rows it prepared once.
//
// PrepareDKVs(dkvs, s) returns the engine's form of the weight rows dkvs
// (s lanes each): whatever DotTile would otherwise derive from them on
// every tile, such as validated lanes and digests. It panics where a
// DotTile of at least one row against those rows would panic for the
// weights' sake. The lowering calls it on a layer group's first dense
// tile and keeps the result in its BatchScratch for as long as that
// scratch serves the same network and engine — never at Load, so
// loading and registering a model do no engine work.
//
// DotConv(t, dkvs, w, out), with w = PrepareDKVs(dkvs, t.S()) from the
// same engine, must leave out exactly as DotTile(t.Rows(), dkvs, t.S(),
// out) would, bit for bit and panics included. An engine falls back to
// t.Rows() for any tile its own gather does not take.
//
// The scratch keys prepared weights by engine, so an implementation must
// be comparable: a pointer, or a struct of comparable fields.
type ConvDotter interface {
	TileDotter
	PrepareDKVs(dkvs []int, s int) any
	DotConv(t *ConvTile, dkvs []int, w any, out []int)
}

// exactDKVs is ExactEngine's prepared form of a tile's weight rows: the
// largest per-DKV sum of |w| (maxAbsSum), which with the planes' OR
// decides the packed GEMM without a scan of every row.
type exactDKVs struct{ absSum int }

// PrepareDKVs implements ConvDotter.
func (ExactEngine) PrepareDKVs(dkvs []int, s int) any { return exactDKVs{maxAbsSum(dkvs, s)} }

// DotConv implements ConvDotter: DotTile over the reference gather, with
// the packed GEMM decided from the prepared Σ|w| and the OR of the
// planes (every row value is a plane value or a border zero, so the
// planes' OR bounds them all).
func (ExactEngine) DotConv(t *ConvTile, dkvs []int, w any, out []int) {
	rows, s := t.Rows(), t.S()
	exactTile(rows, dkvs, s, out, len(rows)/s >= 2 && len(dkvs)/s >= 4 && sumsFit(orBound(t.Planes), w.(exactDKVs).absSum))
}
