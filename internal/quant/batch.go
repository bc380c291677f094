package quant

import (
	"fmt"

	"repro/internal/matmul"
	"repro/internal/opcount"
	"repro/internal/tensor"
)

// BatchScratch holds the reusable buffers of a quantized inference
// stream: the current example's quantized activations, the operand block
// of its current layer and the engine results for that block, and the
// sparse path's buffers. The lowering runs a micro-batch example by
// example through each conv layer, so every buffer is bounded by one
// example, not by the batch (the dense layer's block holds one row per
// example).
//
// A BatchScratch belongs to one goroutine at a time, like the engine it
// serves. The serving plane pairs one with each pooled engine;
// EvaluateParallel keeps one per shard.
type BatchScratch struct {
	qx   []int // the current example's quantized activations
	pad  []int // qx with a zero border
	rows []int // operand block of the current (example, layer): one row per output pixel
	acc  []int // engine results for the block, [DKV][row]
	xs   []*tensor.T

	// The sparse path's buffers (see sparseForward): per input channel
	// its weights by (kernel tap, output channel), one activation's
	// products, and the output rows and columns each input row and
	// column reaches.
	wtap, prod, span []int

	// Ops, when non-nil, receives per-layer op tallies (dense-equivalent
	// and executed) aggregated over the whole micro-batch; nil costs one
	// branch per layer. Safe to share one atomic Recorder across a
	// serving pool's scratches.
	Ops *opcount.Recorder
}

// NewBatchScratch returns an empty batch scratch; buffers grow on first
// use and are retained across calls.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// Forward runs quantized inference on x through engine and returns float
// logits: a one-example ForwardBatch with a private scratch. Repeated
// inference should call ForwardBatch with a reused BatchScratch to
// amortize the buffer allocations.
func (q *Network) Forward(x *tensor.T, engine DotEngine) *tensor.T {
	return q.ForwardBatch([]*tensor.T{x}, []DotEngine{engine}, nil)[0]
}

// ForwardBatch runs quantized inference over a micro-batch of examples,
// which must all share one input shape, on one engine (engines must hold
// exactly one). It returns one fresh logits tensor per example. It is
// the package's one lowering; ForwardNaive is its independent reference.
//
// Every engine computes each dot as a pure function of its operands (a
// noisy ADC keys its error by them), and each example's operand vectors
// are ForwardNaive's for that example. So an example's logits are
// bit-identical to ForwardNaive on the same engine configuration,
// whatever else shares its batch and wherever it sits in it (pinned by
// the equivalence and batch-composition tests).
//
// Each conv layer lowers, per example, to one zero-padded full-window
// operand block — a row of S = K*K*D lanes per output pixel, in the
// weight-row order — and one engine product against every output
// channel's weight row as stored: a single DotTile call on a TileDotter
// (one per channel for a depthwise conv, whose rows differ per channel),
// otherwise one Dot per (row, weight row). A dense layer is one product
// over the whole batch, one row per example. A ReLU right after a conv
// or dense layer is applied in that layer's epilogue. The engine-free
// layers run through inference-only kernels (poolHalf, gapPool, in-place
// ReLU on internally produced tensors) that are bit-identical to the nn
// training layers ForwardNaive keeps.
func (q *Network) ForwardBatch(xs []*tensor.T, engines []DotEngine, s *BatchScratch) []*tensor.T {
	if len(xs) == 0 {
		return nil
	}
	if len(engines) != 1 {
		panic(fmt.Sprintf("quant: ForwardBatch needs exactly 1 engine, got %d", len(engines)))
	}
	for _, x := range xs[1:] {
		if !sameShape(x.Shape, xs[0].Shape) {
			panic(fmt.Sprintf("quant: ForwardBatch input shapes differ: %v vs %v", x.Shape, xs[0].Shape))
		}
	}
	if s == nil {
		s = NewBatchScratch()
	}
	d := newDotter(engines[0])
	qmax := int(1)<<uint(q.Bits) - 1
	if cap(s.xs) < len(xs) {
		s.xs = make([]*tensor.T, len(xs))
	}
	cur := s.xs[:len(xs)]
	copy(cur, xs)
	owned := false // whether cur holds our tensors (not the caller's inputs)
	for li := 0; li < len(q.layers); li++ {
		l := q.layers[li]
		// A ReLU right after an engine layer runs in its epilogue.
		relu := (l.conv != nil || l.dense != nil) && li+1 < len(q.layers) && q.layers[li+1].relu
		switch {
		case l.conv != nil:
			l.conv.forwardBatch(cur, d, qmax, relu, s, li)
		case l.dense != nil:
			l.dense.forwardBatch(cur, d, qmax, relu, s, li)
		case l.relu:
			for e, x := range cur {
				if !owned {
					x = x.Clone()
					cur[e] = x
				}
				reluInPlace(x)
			}
			recordElt(s.Ops, li, reluOps(len(cur)*cur[0].Len()))
		case l.pool:
			for e, x := range cur {
				cur[e] = poolHalf(x)
			}
			recordElt(s.Ops, li, poolOps(len(cur)*cur[0].Len()))
		case l.gap:
			hw := cur[0].Shape[1] * cur[0].Shape[2]
			for e, x := range cur {
				cur[e] = gapPool(x)
			}
			recordElt(s.Ops, li, gapOps(len(cur)*cur[0].Len(), hw))
		case l.flat:
			for e, x := range cur {
				cur[e] = x.Reshape(x.Len()) // aliases: ownership carries
			}
			continue
		}
		owned = true
		if relu {
			li++
			recordElt(s.Ops, li, reluOps(len(cur)*cur[0].Len()))
		}
	}
	out := make([]*tensor.T, len(cur))
	copy(out, cur)
	for i := range cur {
		cur[i] = nil // don't pin the returned logits to the scratch
	}
	return out
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dotter is ForwardBatch's engine with its capabilities resolved once
// per batch: its TileDotter form and whether it skips zeros.
type dotter struct {
	eng   DotEngine
	td    TileDotter
	skips bool
}

func newDotter(eng DotEngine) dotter {
	d := dotter{eng: eng, skips: skipsZeros(eng)}
	d.td, _ = eng.(TileDotter)
	return d
}

// dotTile sets out[j*r+i] = Dot(row i, DKV j) for the r rows of s lanes
// in rows and the DKVs of s lanes in dkvs: one DotTile call on a
// TileDotter, otherwise one Dot call per (row, DKV), DKV-major —
// ForwardNaive's (output channel, pixel) order.
func (d dotter) dotTile(rows, dkvs []int, s int, out []int) {
	if d.td != nil {
		d.td.DotTile(rows, dkvs, s, out)
		return
	}
	r := len(rows) / s
	for j := 0; j < len(dkvs)/s; j++ {
		dkv := dkvs[j*s : (j+1)*s]
		for i := range r {
			out[j*r+i] = d.eng.Dot(rows[i*s:(i+1)*s], dkv)
		}
	}
}

// dequant is the conv and dense epilogue: float32(acc)*inScale*wScale +
// bias, evaluated left to right, then a fused ReLU that, like
// reluInPlace, zeroes only values below zero (-0 stays -0).
func dequant(acc int, inScale, wScale, bias float32, relu bool) float32 {
	v := float32(acc)*inScale*wScale + bias
	if relu && v < 0 {
		v = 0
	}
	return v
}

// forwardBatch runs the lowered quantized convolution over a batch,
// example by example. Each example's input is quantized once; on the
// dense path its full-window operand block is built once per layer (per
// channel for a depthwise conv) and goes to the engine against every
// output channel's weight row as stored — the DKV of a full window is
// its weight row, so nothing is gathered — and the engine results are
// dequantized, with a fused ReLU when relu is set, into the example's
// output. The operand vectors are exactly ForwardNaive's.
//
// Sparsity gating is per example: on an engine that opts in
// (ZeroSkipper), an example whose quantized input clears worthSparse
// runs the input-stationary compacted path, sparseForward — bit-exact
// by the ZeroSkipper contract. Engines that do not opt in always see
// the dense operand vectors.
func (c *QConv2D) forwardBatch(xs []*tensor.T, d dotter, qmax int, relu bool, bs *BatchScratch, li int) {
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	nin := len(xs[0].Data)
	pos := matmul.Positions(h, w, c.K, c.Stride, c.Pad)
	npix := pos.NumPix()
	k2 := c.K * c.K
	// A standard conv is one group of every input channel and every
	// output channel; a depthwise conv is InC groups of one each.
	groups, ksz := 1, c.InC*k2 // ksz = S, the lanes per operand row
	if c.Depthwise {
		groups, ksz = c.InC, k2
	}
	gin, gout := c.InC/groups, c.OutC/groups
	bs.rows = growInts(bs.rows, npix*ksz)
	bs.acc = growInts(bs.acc, c.OutC*npix)
	nDense, nSparse, nnzSparse := 0, 0, 0
	for e, x := range xs {
		bs.qx = quantizeActs(bs.qx, x.Data, c.InScale, qmax)
		out := tensor.New(c.OutC, pos.OutH, pos.OutW)
		xs[e] = out // the input is spent once quantized
		if d.skips && worthSparse(bs.qx) {
			nSparse++
			nnzSparse += c.sparseForward(d, bs, out.Data, groups, h, w, relu)
			continue
		}
		nDense++
		planes := bs.padPlanes(bs.qx, c.InC, h, w, c.Pad)
		phw := len(planes) / c.InC
		for g := 0; g < groups; g++ {
			c.im2col(bs.rows, planes[g*gin*phw:(g+1)*gin*phw], gin, w+2*c.Pad, pos.OutH, pos.OutW)
			d.dotTile(bs.rows, c.W[g*gout*ksz:(g+1)*gout*ksz], ksz, bs.acc[g*gout*npix:(g+1)*gout*npix])
		}
		inScale, wScale := c.InScale, c.WScale
		for oc, bias := range c.Bias {
			acc, dst := bs.acc[oc*npix:(oc+1)*npix], out.Data[oc*npix:(oc+1)*npix]
			dst = dst[:len(acc)]
			for pix, a := range acc {
				dst[pix] = dequant(a, inScale, wScale, bias, relu)
			}
		}
	}
	if bs.Ops != nil {
		if nDense > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nDense, -1)
		}
		if nSparse > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nSparse, nnzSparse)
		}
	}
}

// padPlanes returns the inC quantized h x w planes qx with a zero
// border of width pad, in bs.pad (qx itself when pad is 0).
func (bs *BatchScratch) padPlanes(qx []int, inC, h, w, pad int) []int {
	if pad == 0 {
		return qx
	}
	ph, pw := h+2*pad, w+2*pad
	bs.pad = growInts(bs.pad, inC*ph*pw)
	clear(bs.pad)
	for ic := 0; ic < inC; ic++ {
		for y := 0; y < h; y++ {
			copy(bs.pad[(ic*ph+y+pad)*pw+pad:], qx[(ic*h+y)*w:(ic*h+y+1)*w])
		}
	}
	return bs.pad
}

// im2col fills rows with one full-window operand row per output pixel
// (oh x ow, row-major) over inC zero-bordered planes of width pw: lanes
// in (ic, ky, kx) order — the weight-row order — with the border's zeros
// for the taps that fall in the padding. Each (ic, ky) segment of a row
// is k consecutive values of one plane row.
func (c *QConv2D) im2col(rows, planes []int, inC, pw, oh, ow int) {
	k, st := c.K, c.Stride
	ph := len(planes) / (inC * pw)
	s := inC * k * k
	for oy := 0; oy < oh; oy++ {
		for ic := 0; ic < inC; ic++ {
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
}

// sparseForward is the compacted path of one example, input-stationary:
// each nonzero activation is one engine tile, a single-lane row against
// its input channel's weights at every kernel tap as single-lane DKVs,
// and the products add into the outputs whose windows read it. A
// pixel's products over its nonzero lanes sum to its Dot (ZeroSkipper
// clauses 1 and 3), and a pixel no nonzero activation reaches stays 0
// (clause 2). The sums, accumulated [group][pixel][channel in group] in
// bs.acc, are dequantized into out. It returns the nonzero lane count
// over all pixels, the work a zero-skipping engine does per output
// channel.
//
// The DKVs run (ky, kx) with kx reversed, so at stride 1 the taps one
// activation meets along an output row are consecutive, like the row's
// pixels, and each output row takes one add loop.
func (c *QConv2D) sparseForward(d dotter, bs *BatchScratch, out []float32, groups, h, w int, relu bool) int {
	k, k2 := c.K, c.K*c.K
	gin, gout := c.InC/groups, c.OutC/groups
	oh, ow := (h+2*c.Pad-k)/c.Stride+1, (w+2*c.Pad-k)/c.Stride+1
	npix := oh * ow
	wtap := growInts(bs.wtap, c.InC*k2*gout)
	bs.wtap = wtap
	for ic := 0; ic < c.InC; ic++ {
		g := ic / gin
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for j := 0; j < gout; j++ {
					wtap[((ic*k+ky)*k+k-1-kx)*gout+j] = c.W[(((g*gout+j)*gin+ic-g*gin)*k+ky)*k+kx]
				}
			}
		}
	}
	bs.span = growInts(bs.span, 2*(h+w))
	ys, xs := c.reach(bs.span[:2*h], oh), c.reach(bs.span[2*h:], ow)
	acc := bs.acc[:npix*c.OutC]
	clear(acc)
	bs.prod = growInts(bs.prod, k2*gout+1)
	row, prod := bs.prod[k2*gout:], bs.prod[:k2*gout]
	nnz := 0
	for ic := 0; ic < c.InC; ic++ {
		g := ic / gin
		dkvs, gacc := wtap[ic*k2*gout:(ic+1)*k2*gout], acc[g*npix*gout:(g+1)*npix*gout]
		for iy := 0; iy < h; iy++ {
			for ix, v := range bs.qx[(ic*h+iy)*w : (ic*h+iy+1)*w] {
				if v == 0 {
					continue
				}
				lo, hi := xs[2*ix], xs[2*ix+1]
				if hi < lo || ys[2*iy+1] < ys[2*iy] {
					continue // no window reads it
				}
				nnz += (ys[2*iy+1] - ys[2*iy] + 1) * (hi - lo + 1)
				row[0] = v
				d.dotTile(row, dkvs, 1, prod)
				for oy := ys[2*iy]; oy <= ys[2*iy+1]; oy++ {
					ky := iy + c.Pad - oy*c.Stride
					// Tap (ky, kx) sits at ky*k + k-1-kx; kx = ix+pad-ox*stride.
					t0 := ky*k + k - 1 - ix - c.Pad
					if c.Stride == 1 {
						addInts(gacc[(oy*ow+lo)*gout:(oy*ow+hi+1)*gout], prod[(t0+lo)*gout:])
						continue
					}
					for ox := lo; ox <= hi; ox++ {
						t := t0 + ox*c.Stride
						addInts(gacc[(oy*ow+ox)*gout:(oy*ow+ox+1)*gout], prod[t*gout:])
					}
				}
			}
		}
	}
	inScale, wScale := c.InScale, c.WScale
	for oc, bias := range c.Bias {
		g, j := oc/gout, oc%gout
		for pix := 0; pix < npix; pix++ {
			out[oc*npix+pix] = dequant(acc[(g*npix+pix)*gout+j], inScale, wScale, bias, relu)
		}
	}
	return nnz
}

// addInts adds src[i] to dst[i] for every i < len(dst), four at a time.
func addInts(dst, src []int) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// reach fills span with, for each input row (or column) i, the first
// and last output row (column) whose window reads it — [ceil((i+pad-k+1)
// /stride), floor((i+pad)/stride)] clamped to the on outputs — and
// returns it.
func (c *QConv2D) reach(span []int, on int) []int {
	for i := 0; i < len(span)/2; i++ {
		span[2*i] = max(0, (i+c.Pad-c.K+c.Stride)/c.Stride)
		span[2*i+1] = min(on-1, (i+c.Pad)/c.Stride)
	}
	return span
}

// forwardBatch quantizes every example's input into one block of rows
// and runs it against every output's weight row in one engine product.
func (dl *QDense) forwardBatch(xs []*tensor.T, d dotter, qmax int, relu bool, bs *BatchScratch, li int) {
	dl.recordOps(bs.Ops, li, len(xs))
	n := len(xs)
	bs.rows = growInts(bs.rows, n*dl.In)
	rows := bs.rows[:n*dl.In]
	for e, x := range xs {
		if len(x.Data) != dl.In {
			panic(fmt.Sprintf("quant: dense layer input length %d, want %d", len(x.Data), dl.In))
		}
		quantizeActs(rows[e*dl.In:(e+1)*dl.In], x.Data, dl.InScale, qmax)
		xs[e] = tensor.New(dl.Out)
	}
	bs.acc = growInts(bs.acc, dl.Out*n)
	d.dotTile(rows, dl.W, dl.In, bs.acc)
	for o := 0; o < dl.Out; o++ {
		for e, a := range bs.acc[o*n : (o+1)*n] {
			xs[e].Data[o] = dequant(a, dl.InScale, dl.WScale, dl.Bias[o], relu)
		}
	}
}
