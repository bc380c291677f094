package quant

import (
	"fmt"

	"repro/internal/matmul"
	"repro/internal/opcount"
	"repro/internal/tensor"
)

// BatchScratch holds the reusable buffers of a quantized inference
// stream: the micro-batch's activations between layers, the current
// example's quantized activations, its current conv tile (with the
// reference gather's block) or dense layer's rows, the engine results,
// and the sparse path's buffers. The lowering runs a micro-batch
// example by example through each conv layer, so every integer buffer
// is bounded by one example, not by the batch (the dense layer's block
// holds one row per example); the two activation arenas hold the whole
// batch and grow to the largest batch served.
//
// It also keeps each conv layer's weights in the forms the hot path
// reads, built on the layer's first use: the engine's prepared weight
// rows (ConvDotter) and the sparse path's per-tap table. They belong to
// the network and engine the scratch last served and are dropped when
// either changes, so they live exactly as long as the (network, engine)
// pairing that the serving pool and the evaluation shards give a
// scratch.
//
// A BatchScratch belongs to one goroutine at a time, like the engine it
// serves. The serving plane pairs one with each pooled engine;
// EvaluateParallel keeps one per shard.
type BatchScratch struct {
	// act are the ping-pong activation arenas: a layer reads the batch
	// from one and writes its output to the other, example e of size m
	// at [e*m:(e+1)*m].
	act   [2][]float32
	shape []int // the current activations' per-example shape

	qx   []int    // the current example's quantized activations
	pad  []int    // qx with a zero border
	tile ConvTile // the current (example, conv layer, group) tile
	rows []int    // a dense layer's operand block: one row per example
	acc  []int    // engine results for the block, [DKV][row]

	// The sparse path's buffers (see sparseForward): one activation's
	// products, and the output rows and columns each input row and
	// column reaches.
	prod, span []int

	// Per-layer weight forms (see bind) for the network net and, for
	// the prepared weight rows, the ConvDotter cd.
	net    *Network
	cd     ConvDotter
	layers []layerPrep

	// Ops, when non-nil, receives per-layer op tallies (dense-equivalent
	// and executed) aggregated over the whole micro-batch; nil costs one
	// branch per layer. Safe to share one atomic Recorder across a
	// serving pool's scratches.
	Ops *opcount.Recorder
}

// layerPrep is a conv layer's weights in the forms the hot path reads,
// each built on its first use: the engine's prepared weight rows per
// group, and the sparse path's table of each input channel's weights by
// (kernel tap, output channel).
type layerPrep struct {
	dkvs []any
	wtap []int
}

// NewBatchScratch returns an empty batch scratch; buffers grow on first
// use and are retained across calls.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// bind points the per-layer weight forms at network q and engine form
// cd (nil for an engine that is no ConvDotter): forms built for another
// network are dropped, and so are prepared rows from another
// ConvDotter. The sparse tables depend on the network alone.
func (bs *BatchScratch) bind(q *Network, cd ConvDotter) {
	if bs.net != q {
		bs.net, bs.cd = q, nil
		bs.layers = make([]layerPrep, len(q.layers))
	}
	if cd != nil && cd != bs.cd {
		bs.cd = cd
		for i := range bs.layers {
			bs.layers[i].dkvs = nil
		}
	}
}

// arena returns activation arena i with n elements, reallocating only
// when its capacity is short. Contents are unspecified.
func (bs *BatchScratch) arena(i, n int) []float32 {
	if cap(bs.act[i]) < n {
		bs.act[i] = make([]float32, n)
	}
	return bs.act[i][:n]
}

// Forward runs quantized inference on x through engine and returns float
// logits: a one-example ForwardBatch with a private scratch. Repeated
// inference should call ForwardBatch with a reused BatchScratch to
// amortize the buffer allocations.
func (q *Network) Forward(x *tensor.T, engine DotEngine) *tensor.T {
	return q.ForwardBatch([]*tensor.T{x}, []DotEngine{engine}, nil)[0]
}

// ForwardBatch runs quantized inference over a micro-batch of examples,
// which must all share one input shape, on one engine (engines must hold
// exactly one). It returns one logits tensor per example, all in one
// fresh slab that never aliases s or the inputs, so the caller may read
// them after handing s (and its engine) to another goroutine. It is the
// package's one lowering; ForwardNaive is its independent reference.
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
// over the whole batch, one row per example.
//
// The epilogue works on the integer accumulators. A ReLU right after a
// conv or dense layer is applied as each output is dequantized. A conv,
// ReLU and 2x2 max pool whose pooled output feeds a quantizer (the next
// conv or dense layer) or a global average pool takes the max of each
// window's four accumulators and dequantizes once per pooled output:
// dequantization with positive finite scales and a finite bias, the
// ReLU and the next quantizer are all non-decreasing, so only the sign
// of a zero can differ from pooling the dequantized values, and neither
// a quantizer nor a GAP sum can see it. The other engine-free layers run
// through inference-only kernels (poolHalf, gapPool, in-place ReLU)
// that are bit-identical to the nn training layers ForwardNaive keeps.
//
// Layer outputs live in s's two activation arenas, so a warm
// ForwardBatch allocates only the returned logits.
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
	s.bind(q, d.cd)
	qmax := int(1)<<uint(q.Bits) - 1
	n := len(xs)
	shape := append(s.shape[:0], xs[0].Shape...) // one example's shape
	m := len(xs[0].Data)                         // one example's size
	a := 0                                       // the arena holding cur
	cur := s.arena(a, n*m)
	for e, x := range xs {
		copy(cur[e*m:(e+1)*m], x.Data)
	}
	for li := 0; li < len(q.layers); li++ {
		l := q.layers[li]
		var in [3]int // the layer's input shape, when it is CxHxW
		copy(in[:], shape)
		shape = q.layerShape(li, shape)
		// A ReLU right after an engine layer runs in its epilogue, and
		// so may the pool after that.
		relu := (l.conv != nil || l.dense != nil) && li+1 < len(q.layers) && q.layers[li+1].relu
		pool := relu && l.conv != nil && q.poolFeedsQuantizer(li+2)
		var next []float32
		switch {
		case l.conv != nil:
			c := l.conv
			npix := shape[1] * shape[2]
			if pool {
				shape = q.layerShape(li+2, shape)
			}
			next = s.arena(1-a, n*c.OutC*shape[1]*shape[2])
			c.forwardBatch(cur, next, n, in[1], in[2], d, qmax, relu, pool, s, li)
			if relu {
				recordElt(s.Ops, li+1, reluOps(n*c.OutC*npix))
			}
		case l.dense != nil:
			next = s.arena(1-a, n*l.dense.Out)
			l.dense.forwardBatch(cur, next, n, d, qmax, relu, s, li)
			if relu {
				recordElt(s.Ops, li+1, reluOps(len(next)))
			}
		case l.relu:
			reluInPlace(cur)
			recordElt(s.Ops, li, reluOps(len(cur)))
			continue
		case l.pool:
			mo := shape[0] * shape[1] * shape[2]
			next = s.arena(1-a, n*mo)
			for e := range n {
				poolHalf(cur[e*m:(e+1)*m], next[e*mo:(e+1)*mo], in[0], in[1], in[2])
			}
			recordElt(s.Ops, li, poolOps(len(next)))
		case l.gap:
			next = s.arena(1-a, n*in[0])
			for e := range n {
				gapPool(cur[e*m:(e+1)*m], next[e*in[0]:(e+1)*in[0]])
			}
			recordElt(s.Ops, li, gapOps(len(next), in[1]*in[2]))
		case l.flat:
			continue
		}
		cur, a, m = next, 1-a, len(next)/n
		if relu {
			li++
		}
		if pool {
			li++
			recordElt(s.Ops, li, poolOps(len(next)))
		}
	}
	s.shape = shape
	return logits(cur, shape, n)
}

// poolFeedsQuantizer reports whether layer li is a 2x2 max pool whose
// output, past any flatten, reaches a conv, dense or global average
// pool layer, none of which can tell a -0 from a +0 in its input.
func (q *Network) poolFeedsQuantizer(li int) bool {
	if li >= len(q.layers) || !q.layers[li].pool {
		return false
	}
	for _, l := range q.layers[li+1:] {
		if !l.flat {
			return l.conv != nil || l.dense != nil || l.gap
		}
	}
	return false
}

// layerShape steps one example's shape through layer li in place, with
// OutputShape's rule, and panics where the layer cannot take it.
func (q *Network) layerShape(li int, shape []int) []int {
	l := q.layers[li]
	shape, err := l.outShape(shape, shape)
	if err != nil {
		panic(fmt.Sprintf("quant: layer %d (%s): %v", li, l.kind(), err))
	}
	return shape
}

// logits copies the n examples of the given shape in act into one fresh
// slab and returns a tensor per example over it: four allocations
// however large the batch.
func logits(act []float32, shape []int, n int) []*tensor.T {
	m, r := len(act)/n, len(shape)
	data := append([]float32(nil), act...)
	shapes := make([]int, n*r)
	ts := make([]tensor.T, n)
	out := make([]*tensor.T, n)
	for e := range out {
		sh := shapes[e*r : (e+1)*r : (e+1)*r]
		copy(sh, shape)
		ts[e] = tensor.T{Shape: sh, Data: data[e*m : (e+1)*m : (e+1)*m]}
		out[e] = &ts[e]
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
// per batch: its TileDotter and ConvDotter forms and whether it skips
// zeros.
type dotter struct {
	eng   DotEngine
	td    TileDotter
	cd    ConvDotter
	skips bool
}

func newDotter(eng DotEngine) dotter {
	d := dotter{eng: eng, skips: skipsZeros(eng)}
	d.td, _ = eng.(TileDotter)
	d.cd, _ = eng.(ConvDotter)
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

// forwardBatch runs the lowered quantized convolution over the n
// examples of InC x h x w in src, example by example, writing each
// example's output to its slot of dst. Each example's input is quantized
// once; on the dense path its zero-bordered planes go to the engine as
// one ConvTile per group (one group for a standard conv, one per channel
// for a depthwise conv) against every output channel's weight row of
// the group as stored — the DKV of a full window is its weight row, so
// no weight is gathered. A ConvDotter gathers the windows itself,
// against the weight rows it prepared on the layer's first dense tile;
// any other engine gets the tile's reference gather, ConvTile.Rows,
// through dotTile. The operand vectors are exactly ForwardNaive's. The
// epilogue dequantizes the engine results, with a fused ReLU when relu
// is set and a fused 2x2 max pool on the accumulators when pool is set.
//
// Sparsity gating is per example: on an engine that opts in
// (ZeroSkipper), an example whose quantized input clears worthSparse
// runs the input-stationary compacted path, sparseForward — bit-exact
// by the ZeroSkipper contract. Engines that do not opt in always see
// the dense operand vectors.
func (c *QConv2D) forwardBatch(src, dst []float32, n, h, w int, d dotter, qmax int, relu, pool bool, bs *BatchScratch, li int) {
	nin, nout := len(src)/n, len(dst)/n
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
	lp := &bs.layers[li]
	bs.acc = growInts(bs.acc, c.OutC*npix)
	nDense, nSparse, nnzSparse := 0, 0, 0
	for e := range n {
		bs.qx = quantizeActs(bs.qx, src[e*nin:(e+1)*nin], c.InScale, qmax)
		out := dst[e*nout : (e+1)*nout]
		if d.skips && worthSparse(bs.qx) {
			nSparse++
			if lp.wtap == nil {
				lp.wtap = c.tapWeights(groups)
			}
			nnzSparse += c.sparseForward(d, bs, lp.wtap, groups, h, w)
			c.epilogue(bs.acc, gout, pos.OutH, pos.OutW, relu, pool, out)
			continue
		}
		nDense++
		planes := bs.padPlanes(bs.qx, c.InC, h, w, c.Pad)
		t := &bs.tile
		t.C, t.PH, t.PW, t.K, t.Stride, t.OH, t.OW = gin, h+2*c.Pad, w+2*c.Pad, c.K, c.Stride, pos.OutH, pos.OutW
		phw := t.PH * t.PW
		for g := 0; g < groups; g++ {
			t.Planes = planes[g*gin*phw : (g+1)*gin*phw]
			dkvs, acc := c.W[g*gout*ksz:(g+1)*gout*ksz], bs.acc[g*gout*npix:(g+1)*gout*npix]
			if d.cd == nil {
				d.dotTile(t.Rows(), dkvs, ksz, acc)
				continue
			}
			if lp.dkvs == nil {
				lp.dkvs = make([]any, groups)
			}
			if lp.dkvs[g] == nil {
				lp.dkvs[g] = d.cd.PrepareDKVs(dkvs, ksz)
			}
			d.cd.DotConv(t, dkvs, lp.dkvs[g], acc)
		}
		c.epilogue(bs.acc, 1, pos.OutH, pos.OutW, relu, pool, out)
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

// epilogue dequantizes one example's oh x ow accumulators per output
// channel into out, with a fused ReLU when relu is set. Channel oc's
// accumulator for pixel p sits at acc[(oc/ps)*npix*ps + oc%ps + p*ps]:
// ps = 1 is the dense path's [channel][pixel] layout, ps = gout the
// sparse path's [group][pixel][channel in group]. When pool is set,
// out holds the (oh/2) x (ow/2) 2x2 max pool instead, taken on the
// integers: each window's largest accumulator is dequantized once.
func (c *QConv2D) epilogue(acc []int, ps, oh, ow int, relu, pool bool, out []float32) {
	npix := oh * ow
	inScale, wScale := c.InScale, c.WScale
	if !pool {
		for oc, bias := range c.Bias {
			a, dst := acc[(oc/ps)*npix*ps+oc%ps:], out[oc*npix:(oc+1)*npix]
			for p := range dst {
				dst[p] = dequant(a[p*ps], inScale, wScale, bias, relu)
			}
		}
		return
	}
	ph, pw := oh/2, ow/2
	for oc, bias := range c.Bias {
		a, dst := acc[(oc/ps)*npix*ps+oc%ps:], out[oc*ph*pw:(oc+1)*ph*pw]
		for y := range ph {
			r0, r1 := a[2*y*ow*ps:], a[(2*y+1)*ow*ps:]
			for x, o := 0, dst[y*pw:(y+1)*pw]; x < pw; x++ {
				i := 2 * x * ps
				v := max(r0[i], r0[i+ps], r1[i], r1[i+ps])
				o[x] = dequant(v, inScale, wScale, bias, relu)
			}
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

// sparseForward is the compacted path of one example, input-stationary:
// each nonzero activation is one engine tile, a single-lane row against
// its input channel's weights at every kernel tap as single-lane DKVs
// (its slice of wtap, the layer's tapWeights table), and the products
// add into the outputs whose windows read it. A pixel's products over
// its nonzero lanes sum to its Dot (ZeroSkipper clauses 1 and 3), and a
// pixel no nonzero activation reaches stays 0 (clause 2). The sums
// accumulate [group][pixel][channel in group] in bs.acc. It returns the
// nonzero lane count over all pixels, the work a zero-skipping engine
// does per output channel.
//
// The DKVs run (ky, kx) with kx reversed, so at stride 1 the taps one
// activation meets along an output row are consecutive, like the row's
// pixels, and each output row takes one add loop.
func (c *QConv2D) sparseForward(d dotter, bs *BatchScratch, wtap []int, groups, h, w int) int {
	k, k2 := c.K, c.K*c.K
	gin, gout := c.InC/groups, c.OutC/groups
	oh, ow := (h+2*c.Pad-k)/c.Stride+1, (w+2*c.Pad-k)/c.Stride+1
	npix := oh * ow
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
	return nnz
}

// tapWeights returns the sparse path's weight table, wtap in
// sparseForward: per input channel, its weights by (kernel tap, output
// channel of its group), the taps (ky, kx) with kx reversed.
func (c *QConv2D) tapWeights(groups int) []int {
	k := c.K
	gin, gout := c.InC/groups, c.OutC/groups
	wtap := make([]int, c.InC*k*k*gout)
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
	return wtap
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

// forwardBatch quantizes every example of src into one block of rows,
// runs it against every output's weight row in one engine product and
// dequantizes the results into dst, [example][output].
func (dl *QDense) forwardBatch(src, dst []float32, n int, d dotter, qmax int, relu bool, bs *BatchScratch, li int) {
	dl.recordOps(bs.Ops, li, n)
	rows := quantizeActs(bs.rows, src, dl.InScale, qmax)
	bs.rows = rows
	bs.acc = growInts(bs.acc, dl.Out*n)
	d.dotTile(rows, dl.W, dl.In, bs.acc)
	for o, bias := range dl.Bias {
		for e, a := range bs.acc[o*n : (o+1)*n] {
			dst[e*dl.Out+o] = dequant(a, dl.InScale, dl.WScale, bias, relu)
		}
	}
}
