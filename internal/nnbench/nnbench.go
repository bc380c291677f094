// Package nnbench defines the compute-plane benchmark bodies shared by
// the `go test -bench` suites (internal/nn, internal/quant wrap them as
// standard benchmarks) and cmd/benchnn, which runs them through
// testing.Benchmark to emit BENCH_nn.json — the machine-readable
// trajectory future PRs diff for regressions — and to gate CI on the
// GEMM-vs-naive conv speedup.
//
// The shapes are fixed contracts: changing one invalidates the ns/op
// trajectory, so treat them like golden values.
package nnbench

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Conv benchmark shape: a mid-stack layer of the accuracy-study CNNs
// scaled up enough that the gather dominates (8->16 channels, 3x3,
// stride 1, pad 1 over 32x32).
const (
	convInC, convOutC, convK = 8, 16, 3
	convH, convW             = 32, 32
)

func benchConv() (*nn.Conv2D, *tensor.T) {
	rng := rand.New(rand.NewSource(1))
	c := nn.NewConv2D("bench", convInC, convOutC, convK, 1, 1, false, rng)
	x := tensor.New(convInC, convH, convW)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return c, x
}

// ConvForwardNaive times the reference per-output-pixel convolution (the
// seed implementation).
func ConvForwardNaive(b *testing.B) {
	c, x := benchConv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardNaive(x)
	}
}

// ConvForwardGEMM times the im2col/GEMM convolution on the identical
// shape; outputs are bit-identical to the naive path.
func ConvForwardGEMM(b *testing.B) {
	c, x := benchConv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x)
	}
}

// ConvBackwardGEMM times the lowered gradient path (weight, bias and
// input gradients) after one forward pass.
func ConvBackwardGEMM(b *testing.B) {
	c, x := benchConv()
	out := c.Forward(x)
	grad := tensor.New(out.Shape...)
	rng := rand.New(rand.NewSource(2))
	for i := range grad.Data {
		grad.Data[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Backward(grad)
	}
}

// DenseForward times the one-column GEMM fully-connected layer.
func DenseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := nn.NewDense("bench", 512, 128, rng)
	x := tensor.New(512)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x)
	}
}

func benchQuant(b *testing.B) (*quant.Network, *tensor.T) {
	b.Helper()
	net := nn.BuildSmallCNN(8, 8, 1)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(math.Abs(rng.NormFloat64()))
	}
	qn, err := quant.Quantize(net, 8, []nn.Example{{X: x, Label: 0}})
	if err != nil {
		b.Fatal(err)
	}
	return qn, x
}

// QuantForwardNaive times the reference quantized inference gather.
func QuantForwardNaive(b *testing.B) {
	qn, x := benchQuant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qn.ForwardNaive(x, quant.ExactEngine{})
	}
}

// QuantForward times the lowered quantized inference: a one-example
// ForwardBatch (shared integer patch extraction) over a reused scratch.
func QuantForward(b *testing.B) {
	qn, x := benchQuant(b)
	quantForwardOne(b, qn, x, quant.ExactEngine{})
}

// quantForwardOne times one-example ForwardBatch calls of qn on x
// through engine over a reused scratch — the way Evaluate runs them.
func quantForwardOne(b *testing.B, qn *quant.Network, x *tensor.T, engine quant.DotEngine) {
	s := quant.NewBatchScratch()
	xs, engines := []*tensor.T{x}, []quant.DotEngine{engine}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qn.ForwardBatch(xs, engines, s)
	}
}

// sparseBenchInput draws a sparsity-controlled input: each element is
// zero with probability sparsity, otherwise in [0.5, 1] — comfortably
// above the quantization step, so the quantized zero fraction tracks the
// float sparsity.
func sparseBenchInput(seed int64, sparsity float64, shape ...int) *tensor.T {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	for i := range x.Data {
		if rng.Float64() >= sparsity {
			x.Data[i] = 0.5 + 0.5*rng.Float32()
		}
	}
	return x
}

// ConvForwardSparse returns a benchmark timing the float convolution
// forward on the golden conv shape at the given input sparsity: above
// the gate threshold the column-compacted path runs, below it the dense
// GEMM — the sweep measures the crossover.
func ConvForwardSparse(sparsity float64) func(*testing.B) {
	return func(b *testing.B) {
		c, _ := benchConv()
		x := sparseBenchInput(8, sparsity, convInC, convH, convW)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Forward(x)
		}
	}
}

// denseOnlyExact is the exact engine without quant.ZeroSkipper, so it
// pins the dense lowering: the dense reference leg of the sparsity sweep
// runs the exact engine's own tile GEMM — the dense path ExactEngine
// takes below the sparsity gate — with zero skipping off.
type denseOnlyExact struct{}

func (denseOnlyExact) Name() string           { return "exact-dense" }
func (denseOnlyExact) Dot(div, dkv []int) int { return quant.ExactEngine{}.Dot(div, dkv) }
func (denseOnlyExact) DotTile(rows, dkvs []int, s int, out []int) {
	quant.ExactEngine{}.DotTile(rows, dkvs, s, out)
}

// benchQuantSparse builds a single quantized convolution on the golden
// conv shape — the layer whose input sparsity the sweep controls
// directly, so the ratio measures the sparse lowering itself rather
// than a full network's mostly-dense downstream layers. Calibration
// uses a dense input, so quantization parameters are identical across
// sparsities.
func benchQuantSparse(b *testing.B, sparsity float64) (*quant.Network, *tensor.T) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D("bench", convInC, convOutC, convK, 1, 1, false, rng),
	}}
	calib := tensor.New(convInC, convH, convW)
	for i := range calib.Data {
		calib.Data[i] = float32(math.Abs(rng.NormFloat64()))
	}
	qn, err := quant.Quantize(net, 8, []nn.Example{{X: calib, Label: 0}})
	if err != nil {
		b.Fatal(err)
	}
	return qn, sparseBenchInput(9, sparsity, convInC, convH, convW)
}

// QuantForwardSparse returns a benchmark timing the quantized conv
// forward at the given input sparsity through a zero-skipping engine
// (the sparse path engages wherever the gate fires).
func QuantForwardSparse(sparsity float64) func(*testing.B) {
	return func(b *testing.B) {
		qn, x := benchQuantSparse(b, sparsity)
		quantForwardOne(b, qn, x, quant.ExactEngine{})
	}
}

// QuantForwardSparseDenseRef returns the dense reference for the sweep:
// the identical sparse input through a non-ZeroSkipper engine, so every
// layer takes the dense lowering. SparseSpeedup in BENCH_nn.json is this
// leg's ns/op over QuantForwardSparse's.
func QuantForwardSparseDenseRef(sparsity float64) func(*testing.B) {
	return func(b *testing.B) {
		qn, x := benchQuantSparse(b, sparsity)
		quantForwardOne(b, qn, x, denseOnlyExact{})
	}
}

// TrainStep returns a benchmark timing one epoch of mini-batch SGD over
// a fixed 64-example workload with the given data-parallel worker count
// (results are bit-identical across worker counts; only wall time
// moves).
func TrainStep(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		examples := make([]nn.Example, 64)
		for i := range examples {
			x := tensor.New(1, 16, 16)
			for j := range x.Data {
				x.Data[j] = float32(rng.NormFloat64())
			}
			examples[i] = nn.Example{X: x, Label: rng.Intn(8)}
		}
		net := nn.BuildSmallCNN(8, 8, 6)
		opt := nn.SGD{LR: 0.05, Momentum: 0.9}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainParallel(examples, 1, 16, opt, rand.New(rand.NewSource(7)), workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}
