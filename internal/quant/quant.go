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

	"repro/internal/mapper"
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

// TileDotter is an optional DotEngine capability: a layer tile in one
// call, every operand row (DIV) against every weight vector (DKV).
//
// DotTile(rows, dkvs, s, out) must leave out[j*r+i] equal to
// Dot(rows[i*s:(i+1)*s], dkvs[j*s:(j+1)*s]) bit for bit, for each of the
// r = len(rows)/s rows and len(dkvs)/s DKVs (s >= 1), and panic wherever
// one of those Dot calls would — so not at all when either count is
// zero. out is laid out [DKV][row], a conv layer's [channel][pixel]
// tensor order. The lowering hands one engine a conv layer's zero-padded
// full-window operand block of one example, S = K*K*D lanes per output
// pixel in the weight-row order, against every output channel's weight
// row as stored; the engine can validate and pack each DKV once per tile
// and digest each row once, however many DKVs it meets. An engine
// without the capability gets one Dot per (row, DKV), DKV-major.
type TileDotter interface {
	DotEngine
	DotTile(rows, dkvs []int, s int, out []int)
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

// DotTile implements TileDotter as a register-tiled integer GEMM. Its
// micro-kernel takes two rows against four DKVs, two DKVs packed per
// int64 (w0 + w1<<32), so each multiply feeds two sums and the eight
// sums live in four registers. The packing is exact while every sum
// stays within int32, which packedSumsFit checks on the actual operands;
// otherwise, and for the DKVs left over from the groups of four, the
// tile runs Dot, whose sums wrap like any other order's. A single-lane
// row against single-lane DKVs (the sparse path's shape) is a scaled
// vector.
func (ExactEngine) DotTile(rows, dkvs []int, s int, out []int) {
	nr, nd := len(rows)/s, len(dkvs)/s
	if nr == 1 && s == 1 {
		x, out := rows[0], out[:len(dkvs)]
		for j, w := range dkvs {
			out[j] = x * w
		}
		return
	}
	j := 0
	if nr >= 2 && nd >= 4 && packedSumsFit(rows, dkvs, s) {
		for ; j+4 <= nd; j += 4 {
			exactTile4(rows, dkvs[j*s:(j+4)*s], s, out[j*nr:(j+4)*nr])
		}
	}
	for ; j < nd; j++ {
		dkv := dkvs[j*s : (j+1)*s]
		for i := range nr {
			out[j*nr+i] = ExactEngine{}.Dot(rows[i*s:(i+1)*s], dkv)
		}
	}
}

// packedSumsFit reports that every (row, DKV) sum of the tile, and so
// each half of a packed accumulator, lies strictly within int32: rows
// nonnegative with their OR m (an upper bound on every row value) times
// the largest per-DKV sum of |w| below 2^31.
func packedSumsFit(rows, dkvs []int, s int) bool {
	const lim = 1<<31 - 1
	var m0, m1, m2, m3 int
	for ; len(rows) >= 4; rows = rows[4:] {
		m0 |= rows[0]
		m1 |= rows[1]
		m2 |= rows[2]
		m3 |= rows[3]
	}
	m := m0 | m1 | m2 | m3
	for _, v := range rows {
		m |= v
	}
	if m < 0 || m > lim {
		return false
	}
	for j := 0; j < len(dkvs); j += s {
		sum := 0
		for _, w := range dkvs[j : j+s] {
			if w < -lim || w > lim {
				return false
			}
			sum += max(w, -w)
		}
		if m > 0 && sum > lim/m {
			return false
		}
	}
	return true
}

// exactTile4 runs every row against four DKVs (dkvs holds exactly
// four) through the packed 2x4 micro-kernel, writing out[j*nr+i]; a last
// odd row takes plain dots.
func exactTile4(rows, dkvs []int, s int, out []int) {
	nr := len(rows) / s
	w0, w1, w2, w3 := dkvs[:s], dkvs[s:2*s], dkvs[2*s:3*s], dkvs[3*s:4*s]
	o0, o1, o2, o3 := out[:nr], out[nr:2*nr], out[2*nr:3*nr], out[3*nr:4*nr]
	i := 0
	for ; i+2 <= nr; i += 2 {
		a0, a1, b0, b1 := kernel2x4(rows[i*s:(i+1)*s], rows[(i+1)*s:(i+2)*s], w0, w1, w2, w3)
		o0[i], o1[i] = unpack(a0)
		o0[i+1], o1[i+1] = unpack(a1)
		o2[i], o3[i] = unpack(b0)
		o2[i+1], o3[i+1] = unpack(b1)
	}
	if i < nr {
		r := rows[i*s : (i+1)*s]
		o0[i], o1[i] = ExactEngine{}.Dot(r, w0), ExactEngine{}.Dot(r, w1)
		o2[i], o3[i] = ExactEngine{}.Dot(r, w2), ExactEngine{}.Dot(r, w3)
	}
}

// kernel2x4 is the packed micro-kernel: rows r0, r1 against the DKV
// pairs (w0, w1) and (w2, w3), each pair packed into one int64 per lane.
// It is a function of its own so that only its operands compete for
// registers.
func kernel2x4(r0, r1, w0, w1, w2, w3 []int) (a0, a1, b0, b1 int) {
	r0, r1 = r0[:len(w0)], r1[:len(w0)]
	w1, w2, w3 = w1[:len(w0)], w2[:len(w0)], w3[:len(w0)]
	for k, w := range w0 {
		p := w + w1[k]<<32
		q := w2[k] + w3[k]<<32
		x0, x1 := r0[k], r1[k]
		a0 += x0 * p
		a1 += x1 * p
		b0 += x0 * q
		b1 += x1 * q
	}
	return a0, a1, b0, b1
}

// unpack splits a packed accumulator a = lo + hi<<32 (mod 2^64) whose
// halves both lie within int32 back into the two sums.
func unpack(a int) (lo, hi int) {
	lo = int(int32(a))
	return lo, (a - lo) >> 32
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
// DotEngine (engines hold scratch).
type qlayer struct {
	conv  *QConv2D
	dense *QDense
	relu  bool
	pool  bool
	gap   bool
	flat  bool
}

// MinBits and MaxBits bound the operand precisions Quantize and Load
// accept.
const (
	MinBits = 2
	MaxBits = 8
)

// Network is a quantized network executable on any DotEngine.
type Network struct {
	Bits   int
	layers []qlayer
}

// maxAbsOfParam returns the max |w| of a parameter tensor.
func maxAbsOfParam(t *tensor.T) float32 { return t.MaxAbs() }

// Quantize converts a trained float network into a quantized one with
// operand precision bits, calibrating per-layer activation scales over the
// calibration examples (max-abs calibration). It checks each conv and
// dense layer as Load does, so it fails, naming the layer, where a scale
// calibrates outside (0, +Inf) or a bias is not finite.
func Quantize(src *nn.Network, bits int, calibration []nn.Example) (*Network, error) {
	if bits < MinBits || bits > MaxBits {
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
			if err := validateConv(qc, int(qmax)); err != nil {
				return nil, fmt.Errorf("quant: layer %d (%s): %w", li, kindConv, err)
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
			if err := validateDense(qd, int(qmax)); err != nil {
				return nil, fmt.Errorf("quant: layer %d (%s): %w", li, kindDense, err)
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

// quantizeActs converts activations to unsigned integers in [0, qmax]:
// v/scale rounded half away from zero, clamped. Negative values and NaN
// clamp to zero (activations are post-ReLU by contract), and values past
// qmax, however large, to qmax. Clamping before rounding keeps
// int(f+0.5) exact (f+0.5 is exact in float64 for a float32 f in
// [0, qmax]), so the result equals math.Round's wherever that fits an
// int. dst is reused when its capacity suffices.
func quantizeActs(dst []int, x []float32, scale float32, qmax int) []int {
	dst = growInts(dst, len(x))
	top := float64(qmax)
	for i, v := range x {
		f := float64(v / scale)
		if !(f > 0) {
			f = 0
		}
		if f > top {
			f = top
		}
		dst[i] = int(f + 0.5)
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

// reluInPlace zeroes the values of x below zero (-0 stays -0).
func reluInPlace(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// poolHalf writes to out the 2x2 stride-2 max pool of the c x h x w
// planes in x: nn.MaxPool2 restricted to inference, with the same
// comparisons on the same values (bit-identical output), direct
// indexing and no argmax state.
func poolHalf(x, out []float32, c, h, w int) {
	oh, ow := h/2, w/2
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			r0 := x[(ch*h+oy*2)*w:]
			r1 := x[(ch*h+oy*2+1)*w:]
			orow := out[(ch*oh+oy)*ow:]
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
}

// gapPool writes to out the global average of each of the len(out)
// planes in x: nn.GlobalAvgPool restricted to inference, with identical
// accumulation order, so the float result is bit-identical.
func gapPool(x, out []float32) {
	hw := len(x) / len(out)
	for ch := range out {
		var s float32
		for _, v := range x[ch*hw : (ch+1)*hw] {
			s += v
		}
		out[ch] = s / float32(hw)
	}
}

// ForwardNaive runs quantized inference through the reference
// per-output-pixel loops: each conv output is one Dot of the
// zero-padded S-point DIV and DKV that the preprocessing-and-mapping
// unit produces (mapper.Conv.ExtractDIV/ExtractDKV, Fig. 8), in (output
// channel, pixel) order. The lowering must reproduce it exactly — the
// same operand vectors, so the same results on any pure engine — which
// anchors the equivalence and call-sequence tests and the naive leg of
// BenchmarkQuantForward.
func (q *Network) ForwardNaive(x *tensor.T, engine DotEngine) *tensor.T {
	return q.forwardNaiveWith(x, engine, (*QConv2D).forwardNaive)
}

// forwardNaiveWith is ForwardNaive with the conv reference conv; every
// other layer runs through the nn training layers.
func (q *Network) forwardNaiveWith(x *tensor.T, engine DotEngine, conv func(*QConv2D, *tensor.T, DotEngine, int) *tensor.T) *tensor.T {
	qmax := int(1)<<uint(q.Bits) - 1
	for _, l := range q.layers {
		switch {
		case l.conv != nil:
			x = conv(l.conv, x, engine, qmax)
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

// forwardNaive is the reference quantized convolution over the mapper's
// full-window operand vectors.
func (c *QConv2D) forwardNaive(x *tensor.T, engine DotEngine, qmax int) *tensor.T {
	m := mapper.Conv{
		InC: c.InC, H: x.Shape[1], W: x.Shape[2], OutC: c.OutC,
		K: c.K, Stride: c.Stride, Pad: c.Pad, Depthwise: c.Depthwise,
	}
	oh, ow := m.OutSize(m.H), m.OutSize(m.W)
	qx := quantizeActs(nil, x.Data, c.InScale, qmax)
	out := tensor.New(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		dkv := m.ExtractDKV(c.W, oc)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := engine.Dot(m.ExtractDIV(qx, oc, oy, ox), dkv)
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

// OutputShape walks the layers over an input of shape in and returns the
// logits shape, or an error naming the first layer the incoming shape
// does not fit: a conv whose InC differs from the incoming channel
// count, whose padding is not smaller than its kernel, or whose window
// exceeds the padded input; a pool over a plane smaller than 2x2; a
// dense layer whose In differs from the flattened size. Load checks each
// layer alone; the serving plane runs this walk over its input shape at
// registration, so a mis-chained artifact fails there instead of
// panicking in a worker.
func (q *Network) OutputShape(in []int) ([]int, error) {
	n := 1
	for _, d := range in {
		if d < 1 || n > math.MaxInt32/d {
			return nil, fmt.Errorf("quant: input shape %v is not a positive shape of at most 2^31 elements", in)
		}
		n *= d
	}
	shape := append([]int(nil), in...)
	for i, l := range q.layers {
		var err error
		if shape, err = l.outShape(shape, shape); err != nil {
			return nil, fmt.Errorf("quant: layer %d (%s): %w", i, l.kind(), err)
		}
	}
	return shape, nil
}

// outShape writes the shape of the layer's output over one example of
// shape in to dst, which may alias in, and returns it; or it returns an
// error if the layer cannot take that shape. It is the one shape rule
// of OutputShape and ForwardBatch.
func (l qlayer) outShape(dst, in []int) ([]int, error) {
	n := 1
	for _, d := range in {
		n *= d
	}
	switch {
	case l.conv != nil:
		c := l.conv
		if len(in) != 3 || in[0] != c.InC {
			return nil, fmt.Errorf("conv takes %d input channels, got shape %v", c.InC, in)
		}
		if c.Pad >= c.K {
			return nil, fmt.Errorf("conv padding %d is not smaller than its %dx%d kernel", c.Pad, c.K, c.K)
		}
		h, w := in[1]+2*c.Pad, in[2]+2*c.Pad
		if h < c.K || w < c.K {
			return nil, fmt.Errorf("conv %dx%d window exceeds the %dx%d input padded by %d", c.K, c.K, in[1], in[2], c.Pad)
		}
		return append(dst[:0], c.OutC, (h-c.K)/c.Stride+1, (w-c.K)/c.Stride+1), nil
	case l.dense != nil:
		if n != l.dense.In {
			return nil, fmt.Errorf("dense layer takes %d inputs, got shape %v", l.dense.In, in)
		}
		return append(dst[:0], l.dense.Out), nil
	case l.pool:
		if len(in) != 3 || in[1] < 2 || in[2] < 2 {
			return nil, fmt.Errorf("2x2 pool needs a CxHxW input of at least 2x2, got %v", in)
		}
		return append(dst[:0], in[0], in[1]/2, in[2]/2), nil
	case l.gap:
		if len(in) != 3 {
			return nil, fmt.Errorf("global average pool needs a CxHxW input, got %v", in)
		}
		return append(dst[:0], in[0]), nil
	case l.flat:
		return append(dst[:0], n), nil
	}
	return append(dst[:0], in...), nil // ReLU
}
