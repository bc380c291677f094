package quant_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sckernel"
	"repro/internal/tensor"
)

// fuzzReader hands out the fuzz bytes one decision at a time: next(n)
// is the next byte mod n, and 0 once the bytes run out.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next(n int) int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0]) % n
	r.b = r.b[1:]
	return v
}

// The blocks a fuzz input's network is built from.
const (
	blockConv = iota
	blockDepthwise
	blockPool
	blockReLU
	numBlocks
)

// The network tails.
const (
	tailGAPDense = iota
	tailFlatDense
	tailNone
	numTails
)

// The input kinds.
const (
	inputDense = iota
	inputSparse
	inputHuge
	inputZero
	numInputs
)

// The layout faults: an invalid layer layout the decoded network is
// corrupted with, which Quantize, Load or the shape rule must reject
// with an error.
const (
	faultNone = iota
	faultNaNBias
	faultWeightRange
	faultWeightCount
	faultDepthwiseChannels
	faultInputScale
	faultPadPastKernel
	numFaults
)

// fuzzCase is one decoded FuzzForwardBatch input: a float network, its
// input shape and precision, the SC engines' VDPE size and ADC seed, a
// micro-batch with its calibration examples, and a layout fault.
type fuzzCase struct {
	net   *nn.Network
	in    []int
	bits  int
	n     int
	seed  int64
	xs    []*tensor.T
	calib []nn.Example
	fault int
}

// decodeFuzzCase decodes data into a small network and a batch. Header:
// precision 2..8, input channels 1..3, height and width 1..16, a seed
// for weights, biases, inputs and the ADC, and the VDPE size (8, 16 or
// 64). Then up to 7 blocks — a conv (1..16 output channels, K 1..5,
// stride 1..2, padding 0..2, optional ReLU), a depthwise conv (K,
// stride, padding, optional ReLU), a 2x2 pool or a ReLU — each kept
// only where the network's shape rule (Network.OutputShape, so
// qlayer.outShape) takes it. A tail: global average pool or flatten
// into a dense layer of 1..10 outputs (always, if no conv was kept), or
// none. Then 1..6 inputs, each dense, 90% sparse, huge (+Inf and values
// near the float32 maximum among normal ones) or all zero; and a
// layout fault.
func decodeFuzzCase(data []byte) *fuzzCase {
	r := &fuzzReader{data}
	fc := &fuzzCase{bits: quant.MinBits + r.next(quant.MaxBits-quant.MinBits+1)}
	fc.in = []int{1 + r.next(3), 1 + r.next(16), 1 + r.next(16)}
	fc.seed = int64(r.next(256))
	fc.n = []int{8, 16, 64}[r.next(3)]
	rng := rand.New(rand.NewSource(fc.seed))
	fc.net = &nn.Network{}
	shape := fc.in
	// try appends the layers where the shape rule takes them.
	try := func(ls ...nn.Layer) bool {
		cand := &nn.Network{Layers: append(append([]nn.Layer(nil), fc.net.Layers...), ls...)}
		out, err := fuzzShape(cand, fc.bits, fc.in)
		if err != nil {
			return false
		}
		fc.net, shape = cand, out
		return true
	}
	convs := 0
	for b := range r.next(8) {
		name := fmt.Sprintf("l%d", b)
		switch kind := r.next(numBlocks); kind {
		case blockConv, blockDepthwise:
			inC, outC := shape[0], shape[0]
			if kind == blockConv {
				outC = 1 + r.next(16)
			}
			k, stride, pad := 1+r.next(5), 1+r.next(2), r.next(3)
			conv := nn.NewConv2D(name, inC, outC, k, stride, pad, kind == blockDepthwise, rng)
			randomBias(conv.Bias.W.Data, rng)
			ls := []nn.Layer{conv}
			if r.next(2) == 1 {
				ls = append(ls, &nn.ReLU{})
			}
			if try(ls...) {
				convs++
			}
		case blockPool:
			try(&nn.MaxPool2{})
		case blockReLU:
			try(&nn.ReLU{})
		}
	}
	tail := r.next(numTails)
	if convs == 0 && tail == tailNone {
		tail = tailGAPDense
	}
	if tail != tailNone {
		in := shape[0]
		var head nn.Layer = &nn.GlobalAvgPool{}
		if tail == tailFlatDense {
			in = shape[0] * shape[1] * shape[2]
			head = &nn.Flatten{}
		}
		dense := nn.NewDense("fc", in, 1+r.next(10), rng)
		randomBias(dense.Bias.W.Data, rng)
		try(head, dense)
	}
	for range 2 {
		fc.calib = append(fc.calib, nn.Example{X: fuzzInput(fc.in, inputDense, rng)})
	}
	for range 1 + r.next(6) {
		fc.xs = append(fc.xs, fuzzInput(fc.in, r.next(numInputs), rng))
	}
	fc.fault = r.next(numFaults)
	return fc
}

// fuzzShape is the output shape of net over in by the quantized
// network's shape rule.
func fuzzShape(net *nn.Network, bits int, in []int) ([]int, error) {
	qn, err := quant.Quantize(net, bits, nil)
	if err != nil {
		return nil, err
	}
	return qn.OutputShape(in)
}

// randomBias fills a layer's biases with small normal values.
func randomBias(b []float32, rng *rand.Rand) {
	for i := range b {
		b[i] = float32(rng.NormFloat64() * 0.3)
	}
}

// fuzzInput draws one input of the given shape and kind.
func fuzzInput(shape []int, kind int, rng *rand.Rand) *tensor.T {
	x := tensor.New(shape...)
	for i := range x.Data {
		v := float32(rng.NormFloat64())
		switch kind {
		case inputDense:
			v = float32(math.Abs(float64(v)))
		case inputSparse:
			if rng.Float64() >= 0.1 {
				v = 0
			}
		case inputHuge:
			switch rng.Intn(10) {
			case 0:
				v = float32(math.Inf(1))
			case 1:
				v = math.MaxFloat32 * float32(rng.Float64())
			}
		case inputZero:
			v = 0
		}
		x.Data[i] = v
	}
	return x
}

// fuzzEngines builds the engines every decoded case runs on: exact
// arithmetic and the packed SC engine with an ideal and a noisy ADC
// (all three ConvDotters), and another noisy one behind a Dot-only
// wrapper, which gets the reference gather and one Dot per (row, DKV).
func fuzzEngines(fc *fuzzCase) map[string]quant.DotEngine {
	cfg := core.DefaultConfig()
	cfg.Bits, cfg.N, cfg.M, cfg.ADCSeed = fc.bits, fc.n, 1, fc.seed
	engines := map[string]quant.DotEngine{"exact": quant.ExactEngine{}}
	for _, name := range []string{"packed", "packed-dot", "packed-ideal"} {
		cfg.IdealADC = name == "packed-ideal"
		e, err := sckernel.New(cfg)
		if err != nil {
			panic(err) // every decoded configuration is on the DWDM grid
		}
		engines[name] = e
	}
	engines["packed-dot"] = dotOnly{engines["packed-dot"]}
	return engines
}

// checkFuzzCase runs a decoded case and reports the first broken
// contract: the network quantizes; on every engine ForwardBatch equals
// ForwardNaive per example bit for bit, and so does the reversed batch
// on the warm scratch; a Save→Load round trip serves the same logits;
// and the layout fault is rejected with an error.
func checkFuzzCase(fc *fuzzCase) error {
	qn, err := quant.Quantize(fc.net, fc.bits, fc.calib)
	if err != nil {
		return fmt.Errorf("quantizing a valid network: %v", err)
	}
	shape, err := qn.OutputShape(fc.in)
	if err != nil {
		return fmt.Errorf("shape rule rejects a network it built: %v", err)
	}
	n := len(fc.xs)
	rev := make([]*tensor.T, n)
	for i, x := range fc.xs {
		rev[n-1-i] = x
	}
	var buf bytes.Buffer
	if err := qn.Save(&buf); err != nil {
		return err
	}
	loaded, err := quant.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("loading a saved network: %v", err)
	}
	for name, eng := range fuzzEngines(fc) {
		engines := []quant.DotEngine{eng}
		s := quant.NewBatchScratch()
		got := qn.ForwardBatch(fc.xs, engines, s)
		for i, x := range fc.xs {
			if err := sameBits(got[i], qn.ForwardNaive(x, eng)); err != nil {
				return fmt.Errorf("%s: example %d: ForwardBatch vs ForwardNaive: %v", name, i, err)
			}
			if !slices.Equal(got[i].Shape, shape) {
				return fmt.Errorf("%s: logits shape %v, OutputShape %v", name, got[i].Shape, shape)
			}
		}
		for i, l := range qn.ForwardBatch(rev, engines, s) {
			if err := sameBits(l, got[n-1-i]); err != nil {
				return fmt.Errorf("%s: example %d moved to position %d: %v", name, n-1-i, i, err)
			}
		}
		for i, l := range loaded.ForwardBatch(fc.xs, engines, quant.NewBatchScratch()) {
			if err := sameBits(l, got[i]); err != nil {
				return fmt.Errorf("%s: example %d after Save→Load: %v", name, i, err)
			}
		}
	}
	return checkFault(fc, buf.Bytes())
}

// sameBits reports where two logits tensors differ in a bit.
func sameBits(got, want *tensor.T) error {
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("%d logits, want %d", len(got.Data), len(want.Data))
	}
	for j := range want.Data {
		if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
			return fmt.Errorf("logit %d: %v != %v", j, got.Data[j], want.Data[j])
		}
	}
	return nil
}

// artifactMirror has the field names of the artifact's gob wire format,
// so a test can corrupt a saved artifact one field at a time.
type artifactMirror struct {
	Schema string
	Bits   int
	Layers []struct {
		Kind                      string
		InC, OutC, K, Stride, Pad int
		Depthwise                 bool
		In, Out                   int
		W                         []int
		Bias                      []float32
		WScale                    float32
		InScale                   float32
	}
}

// checkFault corrupts the case's network with its layout fault — in the
// float network before Quantize, or in the saved artifact before Load —
// and reports a fault that is not rejected with an error.
func checkFault(fc *fuzzCase, saved []byte) error {
	switch fc.fault {
	case faultNone:
		return nil
	case faultInputScale:
		// An infinite calibration input calibrates the first engine
		// layer's input scale to +Inf.
		calib := append([]nn.Example{{X: tensor.New(fc.in...)}}, fc.calib...)
		for i := range calib[0].X.Data {
			calib[0].X.Data[i] = float32(math.Inf(1))
		}
		if _, err := quant.Quantize(fc.net, fc.bits, calib); err == nil {
			return fmt.Errorf("Quantize accepted an infinite input scale")
		}
	case faultNaNBias:
		for _, l := range fc.net.Layers {
			var bias []float32
			switch v := l.(type) {
			case *nn.Conv2D:
				bias = v.Bias.W.Data
			case *nn.Dense:
				bias = v.Bias.W.Data
			default:
				continue
			}
			was := bias[0]
			bias[0] = float32(math.NaN())
			_, err := quant.Quantize(fc.net, fc.bits, fc.calib)
			bias[0] = was
			if err == nil {
				return fmt.Errorf("Quantize accepted a NaN bias")
			}
			break
		}
	}
	var a artifactMirror
	if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&a); err != nil {
		return err
	}
	conv, engine := -1, -1 // the first conv and the first engine layer
	for i, l := range a.Layers {
		if conv < 0 && l.Kind == "conv" {
			conv = i
		}
		if engine < 0 && (l.Kind == "conv" || l.Kind == "dense") {
			engine = i
		}
	}
	l := &a.Layers[engine]
	switch fc.fault {
	case faultNaNBias:
		l.Bias[0] = float32(math.NaN())
	case faultInputScale:
		l.InScale = 0
	case faultWeightRange:
		l.W[0] = 1 << a.Bits
	case faultWeightCount:
		l.W = l.W[1:]
	case faultDepthwiseChannels, faultPadPastKernel:
		if conv < 0 {
			return nil
		}
		if c := &a.Layers[conv]; fc.fault == faultDepthwiseChannels {
			c.Depthwise, c.OutC = true, c.InC+1
		} else {
			c.Pad = c.K
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		return err
	}
	qn, err := quant.Load(&buf)
	if fc.fault == faultPadPastKernel {
		// Load checks each layer alone; the shape rule rejects it.
		if err == nil {
			_, err = qn.OutputShape(fc.in)
		}
	}
	if err == nil {
		return fmt.Errorf("layout fault %d accepted", fc.fault)
	}
	return nil
}

// fuzzBlock is one block of an encoded FuzzForwardBatch input.
type fuzzBlock struct {
	kind, outC, k, stride, pad int
	relu                       bool
}

func conv(outC, k, stride, pad int, relu bool) fuzzBlock {
	return fuzzBlock{blockConv, outC, k, stride, pad, relu}
}

func depthwise(k, stride, pad int, relu bool) fuzzBlock {
	return fuzzBlock{blockDepthwise, 0, k, stride, pad, relu}
}

var (
	pool = fuzzBlock{kind: blockPool}
	relu = fuzzBlock{kind: blockReLU}
)

// encodeFuzzCase is decodeFuzzCase's inverse: an 8-bit network over a
// 1x16x16 input on 16-lane VDPEs, with the blocks, a tail (its dense
// layer of out outputs), the input kinds and a layout fault.
func encodeFuzzCase(seed byte, blocks []fuzzBlock, tail, out int, inputs []int, fault int) []byte {
	b := []byte{8 - quant.MinBits, 0, 15, 15, seed, 1, byte(len(blocks))}
	for _, bl := range blocks {
		b = append(b, byte(bl.kind))
		if bl.kind == blockConv {
			b = append(b, byte(bl.outC-1))
		}
		if bl.kind == blockConv || bl.kind == blockDepthwise {
			r := byte(0)
			if bl.relu {
				r = 1
			}
			b = append(b, byte(bl.k-1), byte(bl.stride-1), byte(bl.pad), r)
		}
	}
	b = append(b, byte(tail))
	if tail != tailNone {
		b = append(b, byte(out-1))
	}
	b = append(b, byte(len(inputs)-1))
	for _, in := range inputs {
		b = append(b, byte(in))
	}
	return append(b, byte(fault))
}

// fuzzForwardBatchSeeds encodes every rowNets geometry (and the small
// and depthwise CNNs' three-stage shapes) as FuzzForwardBatch seeds,
// each with a batch of every input kind and its own layout fault.
func fuzzForwardBatchSeeds() [][]byte {
	all := []int{inputDense, inputSparse, inputHuge, inputZero, inputDense}
	return [][]byte{
		// small: BuildSmallCNN(4, 8, 1).
		encodeFuzzCase(1, []fuzzBlock{conv(4, 3, 1, 1, true), pool, conv(8, 3, 1, 1, true), pool, conv(16, 3, 1, 1, true)}, tailGAPDense, 8, all, faultNone),
		// depthwise: BuildDepthwiseCNN(4, 8, 2).
		encodeFuzzCase(2, []fuzzBlock{conv(4, 3, 1, 1, true), pool, depthwise(3, 1, 1, false), conv(8, 1, 1, 0, true), pool, depthwise(3, 1, 1, false), conv(16, 1, 1, 0, true)}, tailGAPDense, 8, all, faultDepthwiseChannels),
		// full: convolutions that never reach into padding.
		encodeFuzzCase(3, []fuzzBlock{conv(4, 3, 1, 0, true), conv(6, 1, 1, 0, true)}, tailGAPDense, 3, all, faultNaNBias),
		// odd-pool: 14x14 -> 7x7 -> 3x3 into a dense layer.
		encodeFuzzCase(4, []fuzzBlock{conv(4, 3, 1, 0, true), pool, conv(6, 3, 1, 1, true), pool}, tailFlatDense, 3, all, faultWeightRange),
		// stride-pool: strided standard and depthwise convs before pools.
		encodeFuzzCase(5, []fuzzBlock{conv(4, 3, 2, 1, true), pool, depthwise(3, 2, 1, true), pool}, tailGAPDense, 3, all, faultInputScale),
		// pool-last: a final pool over an odd extent is the logits.
		encodeFuzzCase(6, []fuzzBlock{conv(3, 3, 1, 1, true), pool, conv(2, 2, 1, 0, true), pool}, tailNone, 0, all, faultPadPastKernel),
		// K = 5 windows over odd output widths, a ReLU and a pool on the
		// raw input, a truncated weight vector.
		encodeFuzzCase(7, []fuzzBlock{relu, pool, conv(5, 5, 1, 2, false), depthwise(4, 1, 1, true)}, tailFlatDense, 10, all, faultWeightCount),
	}
}

// FuzzForwardBatch decodes bytes into a small quantized network and a
// micro-batch (decodeFuzzCase) and checks ForwardBatch against
// ForwardNaive bit for bit on exact arithmetic, the ideal-ADC and the
// noisy packed SC engine and a Dot-only wrapper; batch-composition
// independence on a warm scratch; logits across Save→Load; and that
// Quantize, Load and the shape rule reject an invalid layer layout
// with an error (checkFuzzCase). Its seeds cover every rowNets
// geometry.
func FuzzForwardBatch(f *testing.F) {
	for _, seed := range fuzzForwardBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkFuzzCase(decodeFuzzCase(data)); err != nil {
			t.Fatal(err)
		}
	})
}
