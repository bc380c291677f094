package quant

import (
	"fmt"

	"repro/internal/matmul"
	"repro/internal/opcount"
	"repro/internal/tensor"
)

// BatchScratch holds the reusable buffers of a batched inference stream:
// one Scratch per example slot (quantized activations and sparse
// compactions are per-example state) plus the batch-wide operand
// buffers, which is where the batch amortization lives — each layer's
// DKV vectors are gathered once per micro-batch instead of once per
// example, and the dense examples' DIV rows sit side by side so one
// engine call covers them all.
//
// Ownership follows the same rule as Scratch: one BatchScratch per
// serving goroutine, never shared. The serving plane pairs one with each
// pooled engine.
type BatchScratch struct {
	per    []*Scratch
	dkv    []int
	rows   []int // batch-wide integer im2col (DIV rows) of the current layer
	ds     []int // per-pixel row starts of a pixel-major im2col (npix+1)
	acc    []int // engine results of the current dotRows calls
	xs     []*tensor.T
	sparse []bool // per-example sparse-path flags for the current layer

	// Ops, when non-nil, receives per-layer op tallies aggregated over
	// the whole micro-batch; nil costs one branch per layer. Safe to
	// share one atomic Recorder across a serving pool's scratches.
	Ops *opcount.Recorder
}

// NewBatchScratch returns an empty batch scratch; buffers grow on first
// use and are retained across calls.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// slots returns n per-example scratches, growing the pool as needed.
func (s *BatchScratch) slots(n int) []*Scratch {
	for len(s.per) < n {
		s.per = append(s.per, NewScratch())
	}
	return s.per[:n]
}

// ForwardBatch runs quantized inference over a micro-batch of examples,
// which must all share one input shape. It returns one fresh logits
// tensor per example.
//
// engines selects the dot-product substrate: a single engine serves the
// whole batch (throughput serving — a stateful engine then realizes one
// noise stream across the interleaved batch, deterministic in the batch
// composition but not equal to serving the examples one by one), or one
// engine per example (len(engines) == len(xs), deterministic serving).
// In the per-example form each engine observes exactly the call sequence
// ForwardScratch would issue for its example — same operand vectors,
// same (layer, output-channel, pixel) order — so the logits are
// bit-identical to running that example alone through its engine
// (pinned by the batch equivalence tests).
//
// Compared with per-example ForwardScratch calls, one batched pass
// gathers each layer's weight vectors (DKV) once per micro-batch instead
// of once per example and, on a shared engine that implements
// RowDotter, hands each DKV to the engine once with every dense
// example's operand row for it — the weight-stationary amortization the
// serving plane's micro-batcher exploits.
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
// in row order, where row i belongs to example e0 + i*step: step 1 for
// one row per example, 0 for rows all of example e0. Two or more rows on
// a shared RowDotter go in one DotRows call, which the RowDotter
// contract makes indistinguishable from the Dot loop; otherwise each
// row is one Dot call on its example's engine.
func (b batchEngines) dotRows(e0, step int, rows, dkv, out []int) {
	if b.rd != nil && len(out) > 1 {
		b.rd.DotRows(rows, dkv, out)
		return
	}
	n := len(dkv)
	for i := range out {
		out[i] = b.at(e0+i*step).Dot(rows[i*n:(i+1)*n], dkv)
	}
}

// forwardBatch is the batched counterpart of forward. The engine
// boundary is weight-stationary: each DKV is gathered once per batch and
// handed to the engine with every dense example's DIV row for it, while
// for each example the engine-facing call order stays exactly the
// serial one — (output channel, pixel) lexicographic — which is what
// keeps per-example engines bit-identical to ForwardScratch and a shared
// stateful engine bit-identical to per-call Dot.
//
// Sparsity gating is per example: an example whose engine opts in
// (ZeroSkipper) and whose quantized input clears worthSparse runs the
// compacted path, gathering its own (shorter) operand vectors, while the
// other examples keep the shared dense DKV gathers. Each example's
// (oc, pixel) call order is identical on both paths, so mixed batches
// stay bit-identical to per-example serial inference.
func (c *QConv2D) forwardBatch(xs []*tensor.T, engs batchEngines, qmax int, per []*Scratch, bs *BatchScratch, li int) {
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	hw := h * w
	pos := matmul.Positions(h, w, c.K, c.Stride, c.Pad)
	oh, ow := pos.OutH, pos.OutW
	npix := oh * ow
	k2 := c.K * c.K

	outs := make([]*tensor.T, len(xs))
	if cap(bs.sparse) < len(xs) {
		bs.sparse = make([]bool, len(xs))
	}
	sp := bs.sparse[:len(xs)]
	nSparse, nnzSparse := 0, 0
	segC := c.InC // compacted segments per pixel (depthwise included)
	for e := range xs {
		per[e].qx = quantizeActs(per[e].qx, xs[e].Data, c.InScale, qmax)
		outs[e] = tensor.New(c.OutC, oh, ow)
		sp[e] = skipsZeros(engs.at(e)) && worthSparse(per[e].qx)
		if sp[e] {
			gatherSparse(pos, per[e], segC, hw, k2)
			nSparse++
			nnzSparse += per[e].sseg[npix*segC]
		}
	}
	nDense := len(xs) - nSparse
	if bs.Ops != nil {
		nin := len(xs[0].Data)
		if nDense > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nDense, -1)
		}
		if nSparse > 0 {
			c.recordOps(bs.Ops, li, uint64(pos.NumOffs()), nin, npix, nSparse, nnzSparse)
		}
	}
	bs.acc = growInts(bs.acc, max(len(xs), npix))
	acc := bs.acc

	if c.Depthwise {
		// DKV depends only on (oc, pixel): gather it and the dense
		// examples' single-channel DIV rows once per (oc, pixel).
		for oc := 0; oc < c.OutC; oc++ {
			kbase := oc * k2
			for pix := 0; pix < npix; pix++ {
				offs, kks := pos.At(pix)
				n := len(offs)
				var dkv []int
				if nDense > 0 {
					bs.dkv = growInts(bs.dkv, n)
					dkv = bs.dkv[:n]
					for i, k := range kks {
						dkv[i] = c.W[kbase+k]
					}
					bs.rows = growInts(bs.rows, nDense*n)
					p := 0
					for e := range xs {
						if !sp[e] {
							gatherDIV(bs.rows[p:], per[e].qx[oc*hw:], offs, 1, hw)
							p += n
						}
					}
				}
				c.dotAcross(engs, per, sp, bs.rows, dkv, acc, kbase, pix, oc)
				for e := range xs {
					outs[e].Data[oc*npix+pix] = float32(acc[e])*c.InScale*c.WScale + c.Bias[oc]
				}
			}
		}
		copy(xs, outs)
		return
	}

	ksz := c.InC * k2
	full := pos.Full()
	// One batch-wide integer im2col over the dense examples (the sparse
	// examples gathered their compacted structure above). A full
	// geometry lays it out example-major, [example][pixel][ksz], so each
	// example's pixel rows are contiguous; a padding-truncated one lays
	// it out pixel-major, [pixel][example][lanes], so each pixel's rows
	// across the batch are contiguous, starting at bs.ds[pix].
	if nDense > 0 {
		need := nDense * npix * ksz
		if !full {
			bs.ds = growInts(bs.ds, npix+1)
			need = 0
			for pix := 0; pix < npix; pix++ {
				bs.ds[pix] = need
				offs, _ := pos.At(pix)
				need += nDense * len(offs) * c.InC
			}
			bs.ds[npix] = need
		}
		bs.rows = growInts(bs.rows, need)
		for pix := 0; pix < npix; pix++ {
			offs, _ := pos.At(pix)
			n := len(offs) * c.InC
			p, stride := pix*ksz, npix*ksz
			if !full {
				p, stride = bs.ds[pix], n
			}
			for e := range xs {
				if !sp[e] {
					gatherDIV(bs.rows[p:], per[e].qx, offs, c.InC, hw)
					p += stride
				}
			}
		}
	}
	for oc := 0; oc < c.OutC; oc++ {
		kbase := oc * ksz
		if full {
			// One contiguous weight row serves every dense (example,
			// pixel) of this output channel; each example's pixels go to
			// the engine as one run, keeping the (oc, example, pixel)
			// call order.
			var dkv []int
			if nDense > 0 {
				bs.dkv = growInts(bs.dkv, ksz)
				dkv = bs.dkv[:ksz]
				copy(dkv, c.W[kbase:kbase+ksz])
			}
			rows := bs.rows
			for e := range xs {
				orow := outs[e].Data[oc*npix : (oc+1)*npix]
				if sp[e] {
					for pix := range orow {
						acc := c.sparseDot(engs.at(e), per[e], kbase, pix)
						orow[pix] = float32(acc)*c.InScale*c.WScale + c.Bias[oc]
					}
					continue
				}
				engs.dotRows(e, 0, rows[:npix*ksz], dkv, acc[:npix])
				rows = rows[npix*ksz:]
				for pix, a := range acc[:npix] {
					orow[pix] = float32(a)*c.InScale*c.WScale + c.Bias[oc]
				}
			}
			continue
		}
		for pix := 0; pix < npix; pix++ {
			var rows, dkv []int
			if nDense > 0 {
				rows = bs.rows[bs.ds[pix]:bs.ds[pix+1]]
				_, kks := pos.At(pix)
				n := len(kks) * c.InC
				bs.dkv = growInts(bs.dkv, n)
				dkv = bs.dkv[:n]
				p := 0
				for ic := 0; ic < c.InC; ic++ {
					wseg := c.W[kbase+ic*k2:]
					for _, k := range kks {
						dkv[p] = wseg[k]
						p++
					}
				}
			}
			c.dotAcross(engs, per, sp, rows, dkv, acc, kbase, pix, oc)
			for e := range xs {
				outs[e].Data[oc*npix+pix] = float32(acc[e])*c.InScale*c.WScale + c.Bias[oc]
			}
		}
	}
	copy(xs, outs)
}

// dotAcross runs one (output channel, pixel) dot product for every
// example, in example order, leaving example e's result in acc[e]. The
// dense examples' DIV rows lie back to back in rows, in example order,
// against the shared dkv: each maximal run of consecutive dense examples
// is one dotRows call (a lone row one Dot), and a sparse example runs its
// compacted dot between runs — so every engine sees exactly the
// per-example call sequence.
func (c *QConv2D) dotAcross(engs batchEngines, per []*Scratch, sp []bool, rows, dkv, acc []int, kbase, pix, oc int) {
	n := len(dkv)
	for e := 0; e < len(sp); {
		if sp[e] {
			if c.Depthwise {
				acc[e] = c.sparseDotDW(engs.at(e), per[e], pix, oc)
			} else {
				acc[e] = c.sparseDot(engs.at(e), per[e], kbase, pix)
			}
			e++
			continue
		}
		end := e + 1
		for end < len(sp) && !sp[end] {
			end++
		}
		if end-e == 1 {
			// A lone row is one Dot, as dotRows would make it, without
			// dotRows' call cost (its arguments outgrow the register ABI):
			// this keeps single-input batches as fast as the per-call path.
			acc[e] = engs.at(e).Dot(rows[:n], dkv)
		} else {
			engs.dotRows(e, 1, rows[:(end-e)*n], dkv, acc[e:end])
		}
		rows = rows[(end-e)*n:]
		e = end
	}
}

// forwardBatch quantizes every example's input into one batch of rows
// and hands each output's weight row to the engine once, against all of
// them; per-example call order stays (output) ascending, the serial
// order.
func (d *QDense) forwardBatch(xs []*tensor.T, engs batchEngines, qmax int, bs *BatchScratch, li int) {
	d.recordOps(bs.Ops, li, len(xs))
	outs := make([]*tensor.T, len(xs))
	bs.rows = growInts(bs.rows, len(xs)*d.In)
	rows := bs.rows[:len(xs)*d.In]
	for e, x := range xs {
		if len(x.Data) != d.In {
			panic(fmt.Sprintf("quant: dense layer input length %d, want %d", len(x.Data), d.In))
		}
		quantizeActs(rows[e*d.In:(e+1)*d.In], x.Data, d.InScale, qmax)
		outs[e] = tensor.New(d.Out)
	}
	bs.acc = growInts(bs.acc, len(xs))
	acc := bs.acc[:len(xs)]
	bs.dkv = growInts(bs.dkv, d.In)
	dkv := bs.dkv[:d.In]
	for o := 0; o < d.Out; o++ {
		copy(dkv, d.W[o*d.In:(o+1)*d.In])
		engs.dotRows(0, 1, rows, dkv, acc)
		for e, a := range acc {
			outs[e].Data[o] = float32(a)*d.InScale*d.WScale + d.Bias[o]
		}
	}
	copy(xs, outs)
}
