package quant

import (
	"fmt"

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
// A stateful engine (a noisy ADC) and its scratch share one owner: one
// BatchScratch per goroutine, never shared. The serving plane pairs one
// with each pooled engine; EvaluateParallel keeps one per shard.
type BatchScratch struct {
	per   []slot
	dkv   []int
	rows  []int // batch-wide integer im2col (DIV rows) of the current layer
	ds    []int // per-pixel row starts of a pixel-major im2col (npix+1)
	acc   []int // engine results of the current dotRows calls
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
// which must all share one input shape. It returns one fresh logits
// tensor per example. It is the package's one lowering; ForwardNaive is
// its independent reference.
//
// engines selects the dot-product substrate: a single engine serves the
// whole batch (throughput serving — a stateful engine then realizes one
// noise stream across the interleaved batch, deterministic in the batch
// composition but not equal to serving the examples one by one), or one
// engine per example (len(engines) == len(xs), deterministic serving).
// Each example's engine-facing calls are ForwardNaive's for that example
// — same operand vectors, same (layer, output channel, pixel) order — so
// with per-example engines, and for any one-example batch, the logits
// are bit-identical to ForwardNaive on an identically seeded engine
// (pinned by the equivalence tests). Consecutive one-example calls on
// one engine therefore replay the naive per-example stream, which is
// what Evaluate and EvaluateParallel rely on.
//
// One batched pass gathers each layer's weight vectors (DKV) once per
// micro-batch instead of once per example and, on a shared engine that
// implements RowDotter, hands each DKV to the engine once with every
// dense example's operand row for it — the weight-stationary
// amortization the serving plane's micro-batcher exploits. The engine-
// free layers run through inference-only kernels (poolHalf, gapPool,
// in-place ReLU on internally produced tensors) that are bit-identical
// to the nn training layers ForwardNaive keeps.
func (q *Network) ForwardBatch(xs []*tensor.T, engines []DotEngine, s *BatchScratch) []*tensor.T {
	if len(xs) == 0 {
		return nil
	}
	if len(engines) != 1 && len(engines) != len(xs) {
		panic(fmt.Sprintf("quant: ForwardBatch needs 1 or %d engines, got %d", len(xs), len(engines)))
	}
	for _, x := range xs[1:] {
		if !sameShape(x.Shape, xs[0].Shape) {
			panic(fmt.Sprintf("quant: ForwardBatch input shapes differ: %v vs %v", x.Shape, xs[0].Shape))
		}
	}
	if s == nil {
		s = NewBatchScratch()
	}
	engs := newBatchEngines(engines)
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
			l.conv.forwardBatch(cur, engs, qmax, per, s, li)
			owned = true
		case l.dense != nil:
			l.dense.forwardBatch(cur, engs, qmax, s, li)
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

// batchEngines is ForwardBatch's engine list — one engine shared by the
// whole batch, or one per example — with the shared engine's RowDotter
// form resolved once per batch.
type batchEngines struct {
	list []DotEngine
	rd   RowDotter // list[0] when it serves the whole batch and is a RowDotter
}

func newBatchEngines(list []DotEngine) batchEngines {
	b := batchEngines{list: list}
	if len(list) == 1 {
		b.rd, _ = list[0].(RowDotter)
	}
	return b
}

// at returns the engine serving example e.
func (b batchEngines) at(e int) DotEngine {
	if len(b.list) == 1 {
		return b.list[0]
	}
	return b.list[e]
}

// dotRows sets out[i] = Dot(rows[i*n:(i+1)*n], dkv) with n = len(dkv),
// in row order, where the rows cycle through the examples ex: row i
// belongs to example ex[i%len(ex)]. Two or more rows on a shared
// RowDotter go in one DotRows call, which the RowDotter contract makes
// indistinguishable from the Dot loop; otherwise each row is one Dot
// call on its example's engine.
func (b batchEngines) dotRows(ex, rows, dkv, out []int) {
	n := len(dkv)
	if len(b.list) > 1 {
		for i := range out {
			out[i] = b.list[ex[i%len(ex)]].Dot(rows[i*n:(i+1)*n], dkv)
		}
		return
	}
	if b.rd != nil && len(out) > 1 {
		b.rd.DotRows(rows, dkv, out)
		return
	}
	for i := range out {
		out[i] = b.list[0].Dot(rows[i*n:(i+1)*n], dkv)
	}
}

// forwardBatch runs the lowered quantized convolution over a batch. Each
// example's input is quantized once, each pixel's in-bounds activation
// vector (DIV) is gathered once through the shared patch geometry
// (instead of once per output channel, as the naive loops do), and each
// weight vector (DKV) is gathered once per batch through the same
// position lists — a full window's DKV is its weight row, gathered not
// at all. The engine boundary is weight-stationary: a DKV goes to the
// engine with every dense example's DIV row for it, while for each
// example the engine-facing calls stay exactly ForwardNaive's — same
// operand vectors (zero-padded positions compressed out, channels
// outermost), (output channel, pixel) lexicographic order — which keeps
// per-example engines bit-identical to the reference and a shared
// stateful engine bit-identical to per-call Dot.
//
// Sparsity gating is per example: an example whose engine opts in
// (ZeroSkipper) and whose quantized input clears worthSparse runs the
// compacted path — bit-exact for such engines by the ZeroSkipper
// contract — with its own (shorter) operand vectors, example by example
// ahead of the dense group. Its engine is stateless (clause 3) or its
// own, so moving its calls past other examples' shifts no noise stream.
// Engines that do not opt in always see the dense call sequence.
func (c *QConv2D) forwardBatch(xs []*tensor.T, engs batchEngines, qmax int, per []slot, bs *BatchScratch, li int) {
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
		if !skipsZeros(engs.at(e)) || !worthSparse(s.qx) {
			bs.dense = append(bs.dense, e)
			continue
		}
		nSparse++
		gatherSparse(pos, s, c.InC, hw, k2)
		nnzSparse += s.sseg[npix*c.InC]
		eng, out := engs.at(e), xs[e].Data
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
				acc := sparseDot(eng, s, wrow, lo, lo+nseg)
				orow[pix] = float32(acc)*c.InScale*c.WScale + c.Bias[oc]
			}
		}
	}
	dense := bs.dense
	if bs.Ops != nil {
		if len(dense) > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, len(dense), -1)
		}
		if nSparse > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nSparse, nnzSparse)
		}
	}
	if len(dense) == 0 {
		return
	}
	bs.acc = growInts(bs.acc, len(dense)*npix)

	if c.Depthwise {
		// DKV depends only on (oc, pixel): gather it and the dense
		// examples' single-channel DIV rows once per (oc, pixel).
		for oc := 0; oc < c.OutC; oc++ {
			wrow := c.W[oc*k2 : (oc+1)*k2]
			for pix := 0; pix < npix; pix++ {
				offs, kks := pos.At(pix)
				n := len(offs)
				dkv := wrow
				if n < k2 {
					dkv = gatherDKV(bs, wrow, kks, 1, k2)
				}
				bs.rows = growInts(bs.rows, len(dense)*n)
				for i, e := range dense {
					gatherDIV(bs.rows[i*n:], per[e].qx[oc*hw:], offs, 1, hw)
				}
				engs.dotRows(dense, bs.rows[:len(dense)*n], dkv, bs.acc[:len(dense)])
				c.store(xs, dense, bs.acc, oc, pix, pix+1)
			}
		}
		return
	}

	// One batch-wide integer im2col over the dense examples. A full
	// geometry lays it out example-major, [example][pixel][ksz], so each
	// example's pixel rows are contiguous; a padding-truncated one lays
	// it out pixel-major, [pixel][example][lanes], so each pixel's rows
	// across the batch are contiguous, starting at bs.ds[pix].
	full := pos.Full()
	need := len(dense) * npix * ksz
	if !full {
		bs.ds = growInts(bs.ds, npix+1)
		need = 0
		for pix := 0; pix < npix; pix++ {
			bs.ds[pix] = need
			offs, _ := pos.At(pix)
			need += len(dense) * len(offs) * c.InC
		}
		bs.ds[npix] = need
	}
	bs.rows = growInts(bs.rows, need)
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
	}
	for oc := 0; oc < c.OutC; oc++ {
		wrow := c.W[oc*ksz : (oc+1)*ksz]
		if full {
			// The weight row serves every (example, pixel) of this
			// output channel; each example's pixels go to the engine as
			// one run, keeping the (oc, example, pixel) call order.
			for i := range dense {
				acc := bs.acc[i*npix : (i+1)*npix]
				engs.dotRows(dense[i:i+1], bs.rows[i*npix*ksz:(i+1)*npix*ksz], wrow, acc)
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
			acc := bs.acc[:(end-pix)*len(dense)]
			engs.dotRows(dense, bs.rows[bs.ds[pix]:bs.ds[end]], dkv, acc)
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
func (d *QDense) forwardBatch(xs []*tensor.T, engs batchEngines, qmax int, bs *BatchScratch, li int) {
	d.recordOps(bs.Ops, li, len(xs))
	bs.dense = bs.dense[:0]
	for e := range xs {
		bs.dense = append(bs.dense, e)
	}
	bs.rows = growInts(bs.rows, len(xs)*d.In)
	rows := bs.rows[:len(xs)*d.In]
	for e, x := range xs {
		if len(x.Data) != d.In {
			panic(fmt.Sprintf("quant: dense layer input length %d, want %d", len(x.Data), d.In))
		}
		quantizeActs(rows[e*d.In:(e+1)*d.In], x.Data, d.InScale, qmax)
		xs[e] = tensor.New(d.Out)
	}
	bs.acc = growInts(bs.acc, len(xs))
	acc := bs.acc[:len(xs)]
	for o := 0; o < d.Out; o++ {
		engs.dotRows(bs.dense, rows, d.W[o*d.In:(o+1)*d.In], acc)
		for e, a := range acc {
			xs[e].Data[o] = float32(a)*d.InScale*d.WScale + d.Bias[o]
		}
	}
}
