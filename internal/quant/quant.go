// Package quant provides post-training integer quantization of the
// nn substrate and quantized inference with pluggable dot-product engines,
// so the same quantized network can run on exact integer arithmetic (the
// paper's baseline accelerators) or through the SCONNA functional core
// (stochastic streams + PCA + ADC error), which is how the Table V
// accuracy-drop study is produced.
//
// The scheme matches the paper's hardware contract: activations are
// unsigned B-bit integers (bit-stream I carries no sign because inputs are
// post-ReLU), weights are sign-magnitude with B-bit magnitudes (bit-stream
// W carries a separate sign bit steering the filter MRRs).
package quant

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// DotEngine computes integer dot products; implementations decide the
// arithmetic substrate.
type DotEngine interface {
	// Dot estimates sum_i div[i]*dkv[i], with div unsigned and dkv signed
	// integer values bounded by the engine's precision. Both operands
	// are read-only: the lowering may pass the network's weight storage
	// as dkv.
	Dot(div, dkv []int) int
	// Name labels the engine in reports.
	Name() string
}

// RowDotter is an optional DotEngine capability: the weight-stationary
// form of a run of Dot calls, one weight vector (DKV) held while many
// operand vectors (DIVs) stream past it.
//
// DotRows(rows, dkv, out) must leave out[i] equal to
// Dot(rows[i*n:(i+1)*n], dkv) with n = len(dkv), evaluated in order
// i = 0..len(out)-1 — bit-identical to that sequential Dot loop,
// including any hidden state the calls advance (a noisy ADC's RNG), and
// panicking wherever the loop would. The lowering hands one engine
// every dense example's row of an (output channel, pixel) — or of a run
// of full-window pixels, which share the DKV — in a single call, so the
// engine can validate and pack the DKV once.
type RowDotter interface {
	DotEngine
	DotRows(rows, dkv, out []int)
}

// ExactEngine computes dot products with plain integer arithmetic — the
// reference for accuracy drops.
type ExactEngine struct{}

// Name implements DotEngine.
func (ExactEngine) Name() string { return "exact" }

// Dot implements DotEngine.
func (ExactEngine) Dot(div, dkv []int) int {
	s := 0
	for i := range div {
		s += div[i] * dkv[i]
	}
	return s
}

// DotRows implements RowDotter. Rows go two at a time, so each weight
// load and loop step feeds two independent sums: 15-30% faster than one
// row at a time on the 9-50 lane rows of the served CNN (2-vCPU Xeon,
// go1.24).
func (ExactEngine) DotRows(rows, dkv, out []int) {
	n := len(dkv)
	i := 0
	for ; i+2 <= len(out); i += 2 {
		r0, r1 := rows[i*n:(i+1)*n], rows[(i+1)*n:(i+2)*n]
		s0, s1 := 0, 0
		for j, w := range dkv {
			s0 += r0[j] * w
			s1 += r1[j] * w
		}
		out[i], out[i+1] = s0, s1
	}
	if i < len(out) {
		out[i] = ExactEngine{}.Dot(rows[i*n:(i+1)*n], dkv)
	}
}

// QConv2D is an integer-quantized convolution.
type QConv2D struct {
	InC, OutC, K, Stride, Pad int
	Depthwise                 bool
	// W holds signed integer weights (sign + B-bit magnitude), laid out
	// as [OutC][WC][K][K] like the float layer.
	W []int
	// Bias stays in float (applied after dequantization, standard PTQ).
	Bias []float32
	// WScale dequantizes weights: w_float = w_int * WScale.
	WScale float32
	// InScale quantizes this layer's input activations.
	InScale float32
}

// QDense is an integer-quantized fully-connected layer.
type QDense struct {
	In, Out int
	W       []int // [Out][In]
	Bias    []float32
	WScale  float32
	InScale float32
}

// qlayer is a node of the quantized network. It holds no forward-pass
// state (pooling layers are instantiated per call), so a Network is safe
// for concurrent Forward calls as long as each goroutine brings its own
// DotEngine.
type qlayer struct {
	conv  *QConv2D
	dense *QDense
	relu  bool
	pool  bool
	gap   bool
	flat  bool
}

// Network is a quantized network executable on any DotEngine.
type Network struct {
	Bits   int
	layers []qlayer
}

// maxAbsOfParam returns the max |w| of a parameter tensor.
func maxAbsOfParam(t *tensor.T) float32 { return t.MaxAbs() }

// Quantize converts a trained float network into a quantized one with
// operand precision bits, calibrating per-layer activation scales over the
// calibration examples (max-abs calibration).
func Quantize(src *nn.Network, bits int, calibration []nn.Example) (*Network, error) {
	if bits < 2 || bits > 8 {
		return nil, fmt.Errorf("quant: unsupported precision %d", bits)
	}
	qmax := float32(int(1)<<uint(bits) - 1)

	// Calibration pass: record the max activation magnitude entering each
	// layer.
	maxIn := make([]float32, len(src.Layers))
	for _, ex := range calibration {
		x := ex.X
		for li, l := range src.Layers {
			m := x.MaxAbs()
			if m > maxIn[li] {
				maxIn[li] = m
			}
			x = l.Forward(x)
		}
	}
	for i := range maxIn {
		if maxIn[i] == 0 {
			maxIn[i] = 1
		}
	}

	qn := &Network{Bits: bits}
	for li, l := range src.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			wScale := maxAbsOfParam(v.Wt.W) / qmax
			if wScale == 0 {
				wScale = 1
			}
			qc := &QConv2D{
				InC: v.InC, OutC: v.OutC, K: v.K, Stride: v.Stride, Pad: v.Pad,
				Depthwise: v.Depthwise,
				W:         quantizeSigned(v.Wt.W.Data, wScale, int(qmax)),
				Bias:      append([]float32(nil), v.Bias.W.Data...),
				WScale:    wScale,
				InScale:   maxIn[li] / qmax,
			}
			qn.layers = append(qn.layers, qlayer{conv: qc})
		case *nn.Dense:
			wScale := maxAbsOfParam(v.Wt.W) / qmax
			if wScale == 0 {
				wScale = 1
			}
			qd := &QDense{
				In: v.In, Out: v.Out,
				W:       quantizeSigned(v.Wt.W.Data, wScale, int(qmax)),
				Bias:    append([]float32(nil), v.Bias.W.Data...),
				WScale:  wScale,
				InScale: maxIn[li] / qmax,
			}
			qn.layers = append(qn.layers, qlayer{dense: qd})
		case *nn.ReLU:
			qn.layers = append(qn.layers, qlayer{relu: true})
		case *nn.MaxPool2:
			qn.layers = append(qn.layers, qlayer{pool: true})
		case *nn.GlobalAvgPool:
			qn.layers = append(qn.layers, qlayer{gap: true})
		case *nn.Flatten:
			qn.layers = append(qn.layers, qlayer{flat: true})
		default:
			return nil, fmt.Errorf("quant: unsupported layer %T", l)
		}
	}
	return qn, nil
}

func quantizeSigned(w []float32, scale float32, qmax int) []int {
	out := make([]int, len(w))
	for i, v := range w {
		q := int(math.Round(float64(v / scale)))
		if q > qmax {
			q = qmax
		}
		if q < -qmax {
			q = -qmax
		}
		out[i] = q
	}
	return out
}

// quantizeActs converts activations to unsigned integers in [0, qmax];
// negative values clamp to zero (activations are post-ReLU by contract).
// dst is reused when its capacity suffices.
func quantizeActs(dst []int, x []float32, scale float32, qmax int) []int {
	dst = growInts(dst, len(x))
	for i, v := range x {
		q := int(math.Round(float64(v / scale)))
		if q < 0 {
			q = 0
		}
		if q > qmax {
			q = qmax
		}
		dst[i] = q
	}
	return dst
}

// growInts resizes buf to n elements, reallocating only when capacity is
// short. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func reluInPlace(x *tensor.T) {
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
}

// poolHalf is the 2x2 stride-2 max pool of nn.MaxPool2 restricted to
// inference: same comparisons on the same values (bit-identical output),
// direct indexing, no argmax state.
func poolHalf(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	out := tensor.New(c, oh, ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			r0 := x.Data[(ch*h+oy*2)*w:]
			r1 := x.Data[(ch*h+oy*2+1)*w:]
			orow := out.Data[(ch*oh+oy)*ow:]
			for ox := 0; ox < ow; ox++ {
				bv := r0[ox*2]
				if v := r0[ox*2+1]; v > bv {
					bv = v
				}
				if v := r1[ox*2]; v > bv {
					bv = v
				}
				if v := r1[ox*2+1]; v > bv {
					bv = v
				}
				orow[ox] = bv
			}
		}
	}
	return out
}

// gapPool is nn.GlobalAvgPool restricted to inference: identical
// accumulation order, so the float result is bit-identical.
func gapPool(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c)
	for ch := 0; ch < c; ch++ {
		var s float32
		for _, v := range x.Data[ch*h*w : (ch+1)*h*w] {
			s += v
		}
		out.Data[ch] = s / float32(h*w)
	}
	return out
}

// ForwardNaive runs quantized inference through the reference
// per-output-pixel gather loops (the seed implementation, kept
// verbatim). The lowered path must reproduce it exactly — same operand
// vectors, same engine call order — so it anchors the equivalence and
// call-sequence tests and the naive leg of BenchmarkQuantForward.
func (q *Network) ForwardNaive(x *tensor.T, engine DotEngine) *tensor.T {
	qmax := int(1)<<uint(q.Bits) - 1
	for _, l := range q.layers {
		switch {
		case l.conv != nil:
			x = l.conv.forwardNaive(x, engine, qmax)
		case l.dense != nil:
			x = l.dense.forwardNaive(x, engine, qmax)
		case l.relu:
			x = x.Clone()
			for i, v := range x.Data {
				if v < 0 {
					x.Data[i] = 0
				}
			}
		case l.pool:
			x = (&nn.MaxPool2{}).Forward(x)
		case l.gap:
			x = (&nn.GlobalAvgPool{}).Forward(x)
		case l.flat:
			x = x.Reshape(x.Len())
		}
	}
	return x
}

// gatherDIV fills dst[:inC*len(offs)] with one pixel's DIV vector over
// quantized CHW activations qx (inC planes of hw values): channels
// outermost, the pixel's in-bounds source offsets inner — the lowering's
// lane order.
func gatherDIV(dst, qx, offs []int, inC, hw int) {
	p := 0
	for ic := 0; ic < inC; ic++ {
		qc := qx[ic*hw:]
		for _, o := range offs {
			dst[p] = qc[o]
			p++
		}
	}
}

// forwardNaive is the seed implementation of the quantized convolution,
// kept verbatim as the lowering's reference.
func (c *QConv2D) forwardNaive(x *tensor.T, engine DotEngine, qmax int) *tensor.T {
	h, w := x.Shape[1], x.Shape[2]
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	qx := quantizeActs(nil, x.Data, c.InScale, qmax)
	out := tensor.New(c.OutC, oh, ow)
	wc := c.InC
	if c.Depthwise {
		wc = 1
	}
	ksz := wc * c.K * c.K
	div := make([]int, 0, ksz)
	dkv := make([]int, 0, ksz)
	for oc := 0; oc < c.OutC; oc++ {
		kbase := oc * ksz
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				div = div[:0]
				dkv = dkv[:0]
				icLo, icHi := 0, c.InC
				if c.Depthwise {
					icLo, icHi = oc, oc+1
				}
				for ic := icLo; ic < icHi; ic++ {
					wci := ic - icLo
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							wv := c.W[kbase+(wci*c.K+ky)*c.K+kx]
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue // zero-pad contributes nothing
							}
							div = append(div, qx[(ic*h+iy)*w+ix])
							dkv = append(dkv, wv)
						}
					}
				}
				acc := engine.Dot(div, dkv)
				out.Set(float32(acc)*c.InScale*c.WScale+c.Bias[oc], oc, oy, ox)
			}
		}
	}
	return out
}

func (d *QDense) forwardNaive(x *tensor.T, engine DotEngine, qmax int) *tensor.T {
	qx := quantizeActs(nil, x.Data, d.InScale, qmax)
	out := tensor.New(d.Out)
	dkv := make([]int, d.In)
	for o := 0; o < d.Out; o++ {
		copy(dkv, d.W[o*d.In:(o+1)*d.In])
		acc := engine.Dot(qx, dkv)
		out.Data[o] = float32(acc)*d.InScale*d.WScale + d.Bias[o]
	}
	return out
}

// Evaluate returns top-1 and top-k accuracy of quantized inference over
// the examples using engine, serially on the caller's goroutine. For
// concurrent evaluation with engine-per-shard isolation see
// EvaluateParallel.
func (q *Network) Evaluate(examples []nn.Example, k int, engine DotEngine) (top1, topk float64) {
	if len(examples) == 0 {
		return 0, 0
	}
	c1, ck := q.evaluateBlock(examples, k, engine)
	return float64(c1) / float64(len(examples)), float64(ck) / float64(len(examples))
}

// NumWeights returns the total quantized weight count.
func (q *Network) NumWeights() int {
	t := 0
	for _, l := range q.layers {
		if l.conv != nil {
			t += len(l.conv.W)
		}
		if l.dense != nil {
			t += len(l.dense.W)
		}
	}
	return t
}
