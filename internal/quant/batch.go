package quant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matmul"
	"repro/internal/opcount"
	"repro/internal/tensor"
)

// BatchScratch holds the reusable buffers of a quantized inference
// stream: one slot of per-example state per batch position plus the
// batch-wide operand buffers, which is where the batch amortization
// lives — each layer's DKV vectors are gathered once per micro-batch
// instead of once per example, and the dense examples' DIV rows sit side
// by side so one engine call covers them all.
//
// A BatchScratch belongs to one goroutine at a time, like the engine it
// serves. The serving plane pairs one with each pooled engine;
// EvaluateParallel keeps one per shard.
type BatchScratch struct {
	per   []slot
	dkv   []int
	rows  []int    // batch-wide integer im2col (DIV rows) of the current layer
	keys  []uint64 // the rows' core.VecKey digests, for keyed-noise engines
	ds    []int    // per-pixel row starts of a pixel-major im2col (npix+1)
	acc   []int    // engine results of the current dotRows calls
	xs    []*tensor.T
	dense []int // examples on the dense path in the current layer

	// Ops, when non-nil, receives per-layer op tallies (dense-equivalent
	// and executed) aggregated over the whole micro-batch; nil costs one
	// branch per layer. Safe to share one atomic Recorder across a
	// serving pool's scratches.
	Ops *opcount.Recorder
}

// slot is one example's per-layer state: its quantized activations and,
// on the sparse path, their column-compacted gather (nonzero values,
// their kernel slots and per-(pixel, channel) segment offsets; see
// gatherSparse) with the DKV buffer its compacted dots fill.
type slot struct {
	qx   []int
	sval []int
	skk  []int
	sseg []int
	dkv  []int
}

// NewBatchScratch returns an empty batch scratch; buffers grow on first
// use and are retained across calls.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// slots returns n per-example slots, growing the pool as needed.
func (s *BatchScratch) slots(n int) []slot {
	if len(s.per) < n {
		s.per = append(s.per, make([]slot, n-len(s.per))...)
	}
	return s.per[:n]
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
// One batched pass gathers each layer's weight vectors (DKV) once per
// micro-batch instead of once per example and, on an engine that
// implements RowDotter, hands each DKV to the engine once with every
// dense example's operand row for it — the weight-stationary
// amortization the serving plane's micro-batcher exploits. For a
// keyed-noise engine each row's digest is computed once per layer and
// reused for every DKV the row meets. The engine-free layers run through
// inference-only kernels (poolHalf, gapPool, in-place ReLU on internally
// produced tensors) that are bit-identical to the nn training layers
// ForwardNaive keeps.
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
	per := s.slots(len(xs))
	if cap(s.xs) < len(xs) {
		s.xs = make([]*tensor.T, len(xs))
	}
	cur := s.xs[:len(xs)]
	copy(cur, xs)
	owned := false // whether cur holds our tensors (not the caller's inputs)
	for li, l := range q.layers {
		switch {
		case l.conv != nil:
			l.conv.forwardBatch(cur, d, qmax, per, s, li)
			owned = true
		case l.dense != nil:
			l.dense.forwardBatch(cur, d, qmax, s, li)
			owned = true
		case l.relu:
			for e, x := range cur {
				if !owned {
					x = x.Clone()
					cur[e] = x
				}
				reluInPlace(x)
			}
			owned = true
			recordElt(s.Ops, li, reluOps(len(cur)*cur[0].Len()))
		case l.pool:
			for e, x := range cur {
				cur[e] = poolHalf(x)
			}
			owned = true
			recordElt(s.Ops, li, poolOps(len(cur)*cur[0].Len()))
		case l.gap:
			hw := cur[0].Shape[1] * cur[0].Shape[2]
			for e, x := range cur {
				cur[e] = gapPool(x)
			}
			owned = true
			recordElt(s.Ops, li, gapOps(len(cur)*cur[0].Len(), hw))
		case l.flat:
			for e, x := range cur {
				cur[e] = x.Reshape(x.Len()) // aliases: ownership carries
			}
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
// per batch: its RowDotter form, and whether its noise is keyed by
// operand digests (a RowDotter that does not skip zeros), in which case
// the lowering supplies each row's digest.
type dotter struct {
	eng   DotEngine
	rd    RowDotter
	skips bool
	keyed bool
}

func newDotter(eng DotEngine) dotter {
	d := dotter{eng: eng, skips: skipsZeros(eng)}
	d.rd, _ = eng.(RowDotter)
	d.keyed = d.rd != nil && !d.skips
	return d
}

// dotRows sets out[i] = Dot(rows[i*n:(i+1)*n], dkv) with n = len(dkv):
// one DotRows call on a RowDotter, otherwise one Dot call per row. keys
// holds the rows' digests for a keyed engine and is nil otherwise.
func (d dotter) dotRows(rows, dkv []int, keys []uint64, out []int) {
	if d.rd != nil {
		d.rd.DotRows(rows, dkv, keys, out)
		return
	}
	n := len(dkv)
	for i := range out {
		out[i] = d.eng.Dot(rows[i*n:(i+1)*n], dkv)
	}
}

// keyBuf returns a length-n row-digest buffer from the scratch for a
// keyed engine, and nil for any other: it never reads digests.
func (d dotter) keyBuf(bs *BatchScratch, n int) []uint64 {
	if !d.keyed {
		return nil
	}
	if cap(bs.keys) < n {
		bs.keys = make([]uint64, n)
	}
	return bs.keys[:n]
}

// rowKeys fills keys[i] with the digest of the i-th n-lane row of rows
// (nothing for nil keys).
func rowKeys(keys []uint64, rows []int, n int) {
	for i := range keys {
		keys[i] = core.VecKey(rows[i*n : (i+1)*n])
	}
}

// span is keys[lo:hi], or nil for an engine that takes no digests.
func span(keys []uint64, lo, hi int) []uint64 {
	if keys == nil {
		return nil
	}
	return keys[lo:hi]
}

// forwardBatch runs the lowered quantized convolution over a batch. Each
// example's input is quantized once, each pixel's in-bounds activation
// vector (DIV) is gathered once through the shared patch geometry
// (instead of once per output channel, as the naive loops do), and each
// weight vector (DKV) is gathered once per batch through the same
// position lists — a full window's DKV is its weight row, gathered not
// at all. The engine boundary is weight-stationary: a DKV goes to the
// engine with every dense example's DIV row for it. Each example's
// operand vectors stay exactly ForwardNaive's — zero-padded positions
// compressed out, channels outermost — and the calls keep its (output
// channel, pixel) order.
//
// Sparsity gating is per example: on an engine that opts in
// (ZeroSkipper), an example whose quantized input clears worthSparse
// runs the compacted path — bit-exact by the ZeroSkipper contract —
// with its own (shorter) operand vectors, example by example ahead of
// the dense group. Engines that do not opt in always see the dense
// operand vectors.
func (c *QConv2D) forwardBatch(xs []*tensor.T, d dotter, qmax int, per []slot, bs *BatchScratch, li int) {
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	hw := h * w
	nin := len(xs[0].Data)
	pos := matmul.Positions(h, w, c.K, c.Stride, c.Pad)
	npix := pos.NumPix()
	k2 := c.K * c.K
	ksz := c.InC * k2 // weights per output channel
	if c.Depthwise {
		ksz = k2
	}

	bs.dense = bs.dense[:0]
	nSparse, nnzSparse := 0, 0
	for e, x := range xs {
		s := &per[e]
		s.qx = quantizeActs(s.qx, x.Data, c.InScale, qmax)
		xs[e] = tensor.New(c.OutC, pos.OutH, pos.OutW) // the input is spent once quantized
		if !d.skips || !worthSparse(s.qx) {
			bs.dense = append(bs.dense, e)
			continue
		}
		nSparse++
		gatherSparse(pos, s, c.InC, hw, k2)
		nnzSparse += s.sseg[npix*c.InC]
		out := xs[e].Data
		// Segments pix*InC + [seg, seg+nseg) reduce against wrow.
		seg, nseg := 0, c.InC
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W[oc*ksz:]
			if c.Depthwise {
				wrow, seg, nseg = c.W, oc, 1
			}
			orow := out[oc*npix : (oc+1)*npix]
			for pix := range orow {
				lo := pix*c.InC + seg
				acc := sparseDot(d.eng, s, wrow, lo, lo+nseg)
				orow[pix] = float32(acc)*c.InScale*c.WScale + c.Bias[oc]
			}
		}
	}
	dense := bs.dense
	nd := len(dense)
	if bs.Ops != nil {
		if nd > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nd, -1)
		}
		if nSparse > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nSparse, nnzSparse)
		}
	}
	if nd == 0 {
		return
	}
	bs.acc = growInts(bs.acc, nd*npix)

	if c.Depthwise {
		// DKV depends only on (oc, pixel): gather it and the dense
		// examples' single-channel DIV rows once per (oc, pixel).
		keys := d.keyBuf(bs, nd)
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W[oc*k2 : (oc+1)*k2]
			for pix := 0; pix < npix; pix++ {
				offs, kks := pos.At(pix)
				n := len(offs)
				dkv := wrow
				if n < k2 {
					dkv = gatherDKV(bs, wrow, kks, 1, k2)
				}
				bs.rows = growInts(bs.rows, nd*n)
				for i, e := range dense {
					gatherDIV(bs.rows[i*n:], per[e].qx[oc*hw:], offs, 1, hw)
				}
				rowKeys(keys, bs.rows, n)
				d.dotRows(bs.rows[:nd*n], dkv, keys, bs.acc[:nd])
				c.store(xs, dense, bs.acc, oc, pix, pix+1)
			}
		}
		return
	}

	// One batch-wide integer im2col over the dense examples. A full
	// geometry lays it out example-major, [example][pixel][ksz], so each
	// example's pixel rows are contiguous; a padding-truncated one lays
	// it out pixel-major, [pixel][example][lanes], so each pixel's rows
	// across the batch are contiguous, starting at bs.ds[pix]. Row digests
	// follow the rows: keys[i*npix+pix] example-major, keys[pix*nd+i]
	// pixel-major.
	full := pos.Full()
	need := nd * npix * ksz
	if !full {
		bs.ds = growInts(bs.ds, npix+1)
		need = 0
		for pix := 0; pix < npix; pix++ {
			bs.ds[pix] = need
			offs, _ := pos.At(pix)
			need += nd * len(offs) * c.InC
		}
		bs.ds[npix] = need
	}
	bs.rows = growInts(bs.rows, need)
	keys := d.keyBuf(bs, nd*npix)
	for pix := 0; pix < npix; pix++ {
		offs, _ := pos.At(pix)
		p, stride := pix*ksz, npix*ksz
		if !full {
			p, stride = bs.ds[pix], len(offs)*c.InC
		}
		for _, e := range dense {
			gatherDIV(bs.rows[p:], per[e].qx, offs, c.InC, hw)
			p += stride
		}
		if !full {
			rowKeys(span(keys, pix*nd, (pix+1)*nd), bs.rows[bs.ds[pix]:], stride)
		}
	}
	if full {
		rowKeys(keys, bs.rows, ksz)
	}
	for oc := 0; oc < c.OutC; oc++ {
		wrow := c.W[oc*ksz : (oc+1)*ksz]
		if full {
			// The weight row serves every (example, pixel) of this
			// output channel; each example's pixels go to the engine as
			// one run.
			for i := range dense {
				acc := bs.acc[i*npix : (i+1)*npix]
				d.dotRows(bs.rows[i*npix*ksz:(i+1)*npix*ksz], wrow, span(keys, i*npix, (i+1)*npix), acc)
				c.store(xs, dense[i:i+1], acc, oc, 0, npix)
			}
			continue
		}
		for pix := 0; pix < npix; {
			end := pix + 1
			dkv := wrow
			if _, kks := pos.At(pix); len(kks) < k2 {
				dkv = gatherDKV(bs, wrow, kks, c.InC, k2)
			} else {
				// Consecutive full windows share the weight row, and the
				// pixel-major im2col holds their rows back to back in
				// (pixel, example) order: the whole run is one dotRows.
				for end < npix {
					if _, kk := pos.At(end); len(kk) < k2 {
						break
					}
					end++
				}
			}
			acc := bs.acc[:(end-pix)*nd]
			d.dotRows(bs.rows[bs.ds[pix]:bs.ds[end]], dkv, span(keys, pix*nd, end*nd), acc)
			c.store(xs, dense, acc, oc, pix, end)
			pix = end
		}
	}
}

// gatherDKV gathers the DKV of a padding-truncated window: the weights
// of row wrow (inC channel blocks of k2 kernel slots) at the window's
// in-bounds slots kks, channels outermost — the DIV lane order.
func gatherDKV(bs *BatchScratch, wrow, kks []int, inC, k2 int) []int {
	n := len(kks)
	bs.dkv = growInts(bs.dkv, n*inC)
	for ic := 0; ic < inC; ic++ {
		wseg, dst := wrow[ic*k2:(ic+1)*k2], bs.dkv[ic*n:(ic+1)*n]
		for j, k := range kks {
			dst[j] = wseg[k]
		}
	}
	return bs.dkv[:n*inC]
}

// store dequantizes output channel oc's results at pixels [pix, end),
// laid out [pixel][dense example] in acc, into the dense examples'
// outputs.
func (c *QConv2D) store(xs []*tensor.T, dense, acc []int, oc, pix, end int) {
	npix := xs[0].Shape[1] * xs[0].Shape[2]
	for ; pix < end; pix++ {
		for i, e := range dense {
			xs[e].Data[oc*npix+pix] = float32(acc[i])*c.InScale*c.WScale + c.Bias[oc]
		}
		acc = acc[len(dense):]
	}
}

// forwardBatch quantizes every example's input into one batch of rows
// and hands each output's weight row to the engine once, against all of
// them; per-example call order stays (output) ascending, ForwardNaive's
// order.
func (dl *QDense) forwardBatch(xs []*tensor.T, d dotter, qmax int, bs *BatchScratch, li int) {
	dl.recordOps(bs.Ops, li, len(xs))
	bs.rows = growInts(bs.rows, len(xs)*dl.In)
	rows := bs.rows[:len(xs)*dl.In]
	for e, x := range xs {
		if len(x.Data) != dl.In {
			panic(fmt.Sprintf("quant: dense layer input length %d, want %d", len(x.Data), dl.In))
		}
		quantizeActs(rows[e*dl.In:(e+1)*dl.In], x.Data, dl.InScale, qmax)
		xs[e] = tensor.New(dl.Out)
	}
	keys := d.keyBuf(bs, len(xs))
	rowKeys(keys, rows, dl.In)
	bs.acc = growInts(bs.acc, len(xs))
	acc := bs.acc[:len(xs)]
	for o := 0; o < dl.Out; o++ {
		d.dotRows(rows, dl.W[o*dl.In:(o+1)*dl.In], keys, acc)
		for e, a := range acc {
			xs[e].Data[o] = float32(a)*dl.InScale*dl.WScale + dl.Bias[o]
		}
	}
}
