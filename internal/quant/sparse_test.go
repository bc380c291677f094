package quant

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// sparseInput fills a tensor with values in [0.5, 1] (comfortably above
// the quantization step, so no nonzero rounds to zero), zeroing each
// element independently with probability sparsity — the quantized zero
// fraction then tracks the requested float sparsity.
func sparseInput(rng *rand.Rand, sparsity float64, shape ...int) *tensor.T {
	x := tensor.New(shape...)
	for i := range x.Data {
		if rng.Float64() >= sparsity {
			x.Data[i] = 0.5 + 0.5*rng.Float32()
		}
	}
	return x
}

var quantTierSparsities = []float64{0, 0.5, 0.9, 1.0}

// denseOnlyEngine wraps ExactEngine without implementing ZeroSkipper, so
// it pins the dense path regardless of input sparsity.
type denseOnlyEngine struct{}

func (denseOnlyEngine) Name() string           { return "dense-only" }
func (denseOnlyEngine) Dot(div, dkv []int) int { return ExactEngine{}.Dot(div, dkv) }

// TestZeroSkipperCapability pins which engines opt into the sparse path.
func TestZeroSkipperCapability(t *testing.T) {
	t.Parallel()
	if !skipsZeros(ExactEngine{}) {
		t.Fatal("ExactEngine must skip zeros")
	}
	if skipsZeros(denseOnlyEngine{}) {
		t.Fatal("a plain DotEngine must not skip zeros")
	}
	if skipsZeros(&recordingEngine{}) {
		t.Fatal("the recording engine must see the dense call sequence")
	}
}

func TestWorthSparseThreshold(t *testing.T) {
	t.Parallel()
	if worthSparse(nil) {
		t.Fatal("empty input must not gate sparse")
	}
	if worthSparse([]int{1, 1, 0, 0, 1, 0, 1, 0, 1, 1}) { // 40% zeros
		t.Fatal("40%% zeros is below the threshold")
	}
	if !worthSparse([]int{0, 0, 0, 1, 0, 0, 0, 1, 0, 0}) { // 80% zeros
		t.Fatal("80%% zeros must gate sparse")
	}
}

// TestQuantSparseMatchesNaive is the sparsity equivalence tier: over the
// odd-shape network set and input sparsities {0, 0.5, 0.9, 1.0}, the
// lowered one-example forward (sparse path engaged wherever the gate
// fires) is bit-identical to the dense naive reference for a
// ZeroSkipper engine.
func TestQuantSparseMatchesNaive(t *testing.T) {
	t.Parallel()
	for _, tc := range qnetCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			s := NewBatchScratch() // reused across sparsities: stale compaction must not leak
			for _, sp := range quantTierSparsities {
				x := sparseInput(rng, sp, tc.x.Shape...)
				want := tc.qn.ForwardNaive(x, ExactEngine{})
				got := tc.qn.ForwardBatch([]*tensor.T{x}, []DotEngine{ExactEngine{}}, s)[0]
				if !got.SameShape(want) {
					t.Fatalf("sp=%.1f: shape %v vs %v", sp, got.Shape, want.Shape)
				}
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("sp=%.1f logit[%d]: %v vs %v", sp, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestQuantSparsePathEngages proves through the op recorder that the
// gate actually routes: the first conv layer skips work at 0.9 input
// sparsity and runs dense (exec == dense) at 0 and 0.5.
func TestQuantSparsePathEngages(t *testing.T) {
	t.Parallel()
	tc := qnetCases(t)[0]
	rng := rand.New(rand.NewSource(72))
	for _, sp := range quantTierSparsities {
		rec := tc.qn.OpRecorder()
		s := NewBatchScratch()
		s.Ops = rec
		tc.qn.ForwardBatch([]*tensor.T{sparseInput(rng, sp, tc.x.Shape...)}, []DotEngine{ExactEngine{}}, s)
		l0 := rec.Snapshot().Layers[0]
		if l0.Name != "conv" {
			t.Fatalf("layer 0 is %q, want conv", l0.Name)
		}
		if sp >= 0.9 {
			if l0.Exec.Total() >= l0.Dense.Total() {
				t.Fatalf("sp=%.1f: sparse path did not engage (exec %d >= dense %d)",
					sp, l0.Exec.Total(), l0.Dense.Total())
			}
		} else if l0.Exec != l0.Dense {
			t.Fatalf("sp=%.1f: expected dense path on layer 0, got exec %+v dense %+v",
				sp, l0.Exec, l0.Dense)
		}
	}
}

// TestQuantSparseDenseCallOrderPreserved asserts the determinism
// contract for engines that do NOT opt in: on a highly sparse input, a
// recording (non-ZeroSkipper) engine sees exactly the dense call
// sequence the naive reference issues — operand values, vector lengths
// and (layer, output channel, pixel) order all unchanged.
func TestQuantSparseDenseCallOrderPreserved(t *testing.T) {
	t.Parallel()
	for _, tc := range qnetCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(73))
			x := sparseInput(rng, 0.95, tc.x.Shape...)
			recNaive, recLowered := &recordingEngine{}, &recordingEngine{}
			tc.qn.ForwardNaive(x, recNaive)
			tc.qn.Forward(x, recLowered)
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

// TestQuantSparseBatchMixedEngines runs micro-batches over the sparsity
// tier on a sparse-capable and on a dense-only substrate: every example
// must be bit-identical to its own ForwardNaive pass on that engine.
func TestQuantSparseBatchMixedEngines(t *testing.T) {
	t.Parallel()
	for _, tc := range qnetCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(74))
			bs := NewBatchScratch()
			for _, sp := range quantTierSparsities {
				xs := make([]*tensor.T, 4)
				for i := range xs {
					xs[i] = sparseInput(rng, sp, tc.x.Shape...)
				}
				for _, eng := range []DotEngine{ExactEngine{}, denseOnlyEngine{}} {
					got := tc.qn.ForwardBatch(xs, []DotEngine{eng}, bs)
					for e := range xs {
						want := tc.qn.ForwardNaive(xs[e], eng)
						for i := range want.Data {
							if math.Float32bits(got[e].Data[i]) != math.Float32bits(want.Data[i]) {
								t.Fatalf("%s sp=%.1f example %d logit[%d]: batch %v naive %v",
									eng.Name(), sp, e, i, got[e].Data[i], want.Data[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestQuantSparseEvaluateParallelWorkerInvariance runs the sparse path
// under the parallel evaluator at workers 1, 4 and GOMAXPROCS (the
// -race tier exercises the shared atomic recorder-free hot path):
// accuracies must be identical across worker counts and equal to the
// serial evaluation.
func TestQuantSparseEvaluateParallelWorkerInvariance(t *testing.T) {
	t.Parallel()
	qn, err := Quantize(nn.BuildSmallCNN(4, 4, 5), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(75))
	examples := make([]nn.Example, 40)
	for i := range examples {
		examples[i] = nn.Example{X: sparseInput(rng, 0.9, 1, 16, 16), Label: i % 4}
	}
	wantTop1, wantTopk := qn.Evaluate(examples, 2, ExactEngine{})
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		top1, topk, err := qn.EvaluateParallel(examples, 2, SharedEngine(ExactEngine{}), workers)
		if err != nil {
			t.Fatal(err)
		}
		if top1 != wantTop1 || topk != wantTopk {
			t.Fatalf("workers=%d: (%v, %v) vs serial (%v, %v)", workers, top1, topk, wantTop1, wantTopk)
		}
	}
}

// TestQuantSparseOpRecorderBatchConsistency: running the same examples
// one per ForwardBatch call and as one batch must tally identical op
// counts (the batch aggregation is just a regrouping of the per-example
// sums).
func TestQuantSparseOpRecorderBatchConsistency(t *testing.T) {
	t.Parallel()
	tc := qnetCases(t)[1] // depthwise-pointwise: every conv kind
	rng := rand.New(rand.NewSource(76))
	xs := make([]*tensor.T, 3)
	for i := range xs {
		xs[i] = sparseInput(rng, 0.9, tc.x.Shape...)
	}
	recSerial := tc.qn.OpRecorder()
	s := NewBatchScratch()
	s.Ops = recSerial
	for _, x := range xs {
		tc.qn.ForwardBatch([]*tensor.T{x}, []DotEngine{ExactEngine{}}, s)
	}
	recBatch := tc.qn.OpRecorder()
	bs := NewBatchScratch()
	bs.Ops = recBatch
	tc.qn.ForwardBatch(xs, []DotEngine{ExactEngine{}}, bs)
	ps, pb := recSerial.Snapshot(), recBatch.Snapshot()
	for li := range ps.Layers {
		if ps.Layers[li].Dense != pb.Layers[li].Dense || ps.Layers[li].Exec != pb.Layers[li].Exec {
			t.Fatalf("layer %d (%s): serial %+v/%+v batch %+v/%+v", li, ps.Layers[li].Name,
				ps.Layers[li].Dense, ps.Layers[li].Exec, pb.Layers[li].Dense, pb.Layers[li].Exec)
		}
	}
}
