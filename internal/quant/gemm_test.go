package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// recordingEngine logs every Dot call's operand vectors. Wrapping the
// exact engine, it proves the lowered forward presents a stateful engine
// with the identical call sequence the naive loops would — the property
// that keeps SCONNA-noise results bit-identical across the rewrite.
type recordingEngine struct {
	calls [][2][]int
}

func (r *recordingEngine) Name() string { return "recording" }

func (r *recordingEngine) Dot(div, dkv []int) int {
	r.calls = append(r.calls, [2][]int{
		append([]int(nil), div...),
		append([]int(nil), dkv...),
	})
	return ExactEngine{}.Dot(div, dkv)
}

// qnetCases builds quantized networks over odd layer shapes: padded,
// strided, pointwise, depthwise and dense tails.
func qnetCases(t *testing.T) []struct {
	name string
	qn   *Network
	x    *tensor.T
} {
	t.Helper()
	build := func(name string, seed int64, inH, inW int, layers func(rng *rand.Rand) []nn.Layer) struct {
		name string
		qn   *Network
		x    *tensor.T
	} {
		rng := rand.New(rand.NewSource(seed))
		net := &nn.Network{Layers: layers(rng)}
		x := tensor.New(1, inH, inW)
		for i := range x.Data {
			x.Data[i] = float32(math.Abs(rng.NormFloat64()))
		}
		qn, err := Quantize(net, 8, []nn.Example{{X: x, Label: 0}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return struct {
			name string
			qn   *Network
			x    *tensor.T
		}{name, qn, x}
	}
	return []struct {
		name string
		qn   *Network
		x    *tensor.T
	}{
		build("pad-stride", 31, 9, 11, func(rng *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D("c1", 1, 5, 3, 2, 1, false, rng),
				&nn.ReLU{},
				nn.NewConv2D("c2", 5, 3, 5, 1, 2, false, rng),
				&nn.Flatten{},
			}
		}),
		build("depthwise-pointwise", 32, 8, 8, func(rng *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D("c1", 1, 4, 3, 1, 1, false, rng),
				&nn.ReLU{},
				nn.NewConv2D("dw", 4, 4, 3, 1, 1, true, rng),
				nn.NewConv2D("pw", 4, 6, 1, 1, 0, false, rng),
				&nn.ReLU{},
				&nn.GlobalAvgPool{},
				nn.NewDense("fc", 6, 4, rng),
			}
		}),
		build("nopad-pool", 33, 12, 12, func(rng *rand.Rand) []nn.Layer {
			return []nn.Layer{
				nn.NewConv2D("c1", 1, 3, 3, 1, 0, false, rng),
				&nn.ReLU{},
				&nn.MaxPool2{},
				&nn.Flatten{},
				nn.NewDense("fc", 3*5*5, 4, rng),
			}
		}),
	}
}

// TestQuantLoweredMatchesNaive pins the quantized lowering: logits from
// the shared-patch path are bit-identical to the reference per-channel
// gather loops, and — via the recording engine — the Dot call sequence
// (operand values, order and vector lengths) is preserved exactly, which
// is what keeps the stateful SCONNA engine's noise pairing unchanged.
func TestQuantLoweredMatchesNaive(t *testing.T) {
	t.Parallel()
	for _, tc := range qnetCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			recNaive, recLowered := &recordingEngine{}, &recordingEngine{}
			want := tc.qn.ForwardNaive(tc.x, recNaive)
			got := tc.qn.Forward(tc.x, recLowered)
			if !got.SameShape(want) {
				t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
			}
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("logit[%d]: %v vs %v", i, got.Data[i], want.Data[i])
				}
			}
			if len(recNaive.calls) != len(recLowered.calls) {
				t.Fatalf("Dot call count %d vs naive %d", len(recLowered.calls), len(recNaive.calls))
			}
			for ci := range recNaive.calls {
				for side, which := range [2]string{"div", "dkv"} {
					a, b := recNaive.calls[ci][side], recLowered.calls[ci][side]
					if len(a) != len(b) {
						t.Fatalf("call %d %s length %d vs naive %d", ci, which, len(b), len(a))
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("call %d %s[%d]: %d vs naive %d", ci, which, j, b[j], a[j])
						}
					}
				}
			}
		})
	}
}

// TestQuantLoweredSconnaBitIdentical runs the stateful SCONNA engine
// (fresh instance per path, same seed) through both implementations:
// identical call sequences must realize identical noise streams and so
// identical logits.
func TestQuantLoweredSconnaBitIdentical(t *testing.T) {
	t.Parallel()
	tc := qnetCases(t)[1] // depthwise-pointwise: the hardest call pattern
	ccfg := core.DefaultConfig()
	ccfg.N = 32
	ccfg.M = 1
	engNaive, err := NewSconnaEngine(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	engLowered, err := NewSconnaEngine(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	want := tc.qn.ForwardNaive(tc.x, engNaive)
	got := tc.qn.Forward(tc.x, engLowered)
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("logit[%d]: %v vs naive %v", i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkQuantForward compares the lowered quantized inference — a
// one-example ForwardBatch over a reused scratch, as Evaluate runs it —
// against the naive reference on the shared small-CNN shape (exact
// integer engine; the engine cost is identical on both paths, so the
// delta is the gather lowering).
func BenchmarkQuantForward(b *testing.B) {
	net := nn.BuildSmallCNN(8, 8, 1)
	x := tensor.New(1, 16, 16)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = float32(math.Abs(rng.NormFloat64()))
	}
	qn, err := Quantize(net, 8, []nn.Example{{X: x, Label: 0}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qn.ForwardNaive(x, ExactEngine{})
		}
	})
	b.Run("lowered", func(b *testing.B) {
		s := NewBatchScratch()
		xs, engines := []*tensor.T{x}, []DotEngine{ExactEngine{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qn.ForwardBatch(xs, engines, s)
		}
	})
}
