package quant_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sckernel"
	"repro/internal/tensor"
)

// dotOnly hides every capability of an engine except Dot, Name and
// ZeroSkipper — the shape of the benchmark's counting probe — so
// ForwardBatch must fall back to per-row Dot calls while taking the same
// sparse/dense decisions.
type dotOnly struct{ quant.DotEngine }

func (d dotOnly) SkipsZeros() bool {
	z, ok := d.DotEngine.(quant.ZeroSkipper)
	return ok && z.SkipsZeros()
}

// TestExactDotRowsMatchesDot: the exact engine's DotRows equals its Dot
// row by row, for even and odd row counts (the paired loop and its
// tail) and for zero rows.
func TestExactDotRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for nrows := 0; nrows <= 5; nrows++ {
		n := 1 + rng.Intn(40)
		rows := make([]int, nrows*n)
		for i := range rows {
			rows[i] = rng.Intn(256)
		}
		dkv := make([]int, n)
		for i := range dkv {
			dkv[i] = rng.Intn(511) - 255
		}
		out := make([]int, nrows)
		quant.ExactEngine{}.DotRows(rows, dkv, nil, out)
		for i, got := range out {
			if want := (quant.ExactEngine{}).Dot(rows[i*n:(i+1)*n], dkv); got != want {
				t.Fatalf("%d rows of %d lanes: row %d = %d, Dot = %d", nrows, n, i, got, want)
			}
		}
	}
}

// rowNets builds the networks the row-boundary tests sweep: the small
// and depthwise CNNs (padding-truncated windows, pixel-major im2col) and
// a network whose convolutions all see full windows (pad-0 3x3 and 1x1:
// the example-major im2col and its per-example pixel runs).
func rowNets(t testing.TB) map[string]*quant.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	full := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D("c1", 1, 4, 3, 1, 0, false, rng),
		&nn.ReLU{},
		nn.NewConv2D("pw", 4, 6, 1, 1, 0, false, rng),
		&nn.ReLU{},
		&nn.GlobalAvgPool{},
		nn.NewDense("fc", 6, 3, rng),
	}}
	calib := []nn.Example{{X: rowInputs(1, 0, 3)[0]}}
	out := make(map[string]*quant.Network)
	for name, net := range map[string]*nn.Network{
		"small":     nn.BuildSmallCNN(4, 8, 1),
		"depthwise": nn.BuildDepthwiseCNN(4, 8, 2),
		"full":      full,
	} {
		qn, err := quant.Quantize(net, 8, calib)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = qn
	}
	return out
}

// rowInputs draws n 1x16x16 inputs; every period-th one (period > 0) is
// 90% zeros, so batches mix sparse-path and dense-path examples on
// engines that skip zeros.
func rowInputs(n, period int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(1, 16, 16)
		sparse := period > 0 && i%period == 0
		for j := range x.Data {
			if !sparse || rng.Float64() < 0.1 {
				x.Data[j] = float32(math.Abs(rng.NormFloat64()))
			}
		}
		xs[i] = x
	}
	return xs
}

func assertLogitsBitIdentical(t *testing.T, what string, got, want []*tensor.T) {
	t.Helper()
	for i := range want {
		for j := range want[i].Data {
			if math.Float32bits(got[i].Data[j]) != math.Float32bits(want[i].Data[j]) {
				t.Fatalf("%s: example %d logit %d: %v != %v", what, i, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
}

// TestForwardBatchSharedEngineRowsMatchDot: one packed engine serving
// whole batches through DotRows, with the lowering's row digests, must
// match the same engine hidden behind a Dot-only wrapper bit for bit —
// noisy ADC over consecutive batches, and an ideal ADC on mixed
// sparse/dense batches.
func TestForwardBatchSharedEngineRowsMatchDot(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 16 // below the conv vector lengths: rows cross chunk seams
	cfg.M = 2
	cfg.ADCSeed = 17
	for name, qn := range rowNets(t) {
		for _, ideal := range []bool{false, true} {
			cfg.IdealADC = ideal
			rowed, err := sckernel.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := sckernel.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			perCall := dotOnly{inner}
			period := 0
			if ideal {
				period = 2
			}
			for b, n := range []int{5, 3, 1, 6} {
				xs := rowInputs(n, period, int64(10+b))
				s := quant.NewBatchScratch()
				got := qn.ForwardBatch(xs, []quant.DotEngine{rowed}, s)
				want := qn.ForwardBatch(xs, []quant.DotEngine{perCall}, s)
				assertLogitsBitIdentical(t, name, got, want)
			}
		}
	}
}

// TestForwardBatchCompositionIndependent: on a noisy engine an
// example's logits are a pure function of the example — bit-identical
// served alone, at every position of a batch, and beside different
// batch-mates — on the packed and the scalar engines, over every rowNets
// geometry (padding-truncated, depthwise and full-window).
func TestForwardBatchCompositionIndependent(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 16
	cfg.M = 2
	cfg.ADCSeed = 23
	builds := map[string]func() (quant.DotEngine, error){
		"packed": func() (quant.DotEngine, error) { return sckernel.New(cfg) },
		"scalar": func() (quant.DotEngine, error) { return quant.NewSconnaEngine(cfg) },
	}
	xs := rowInputs(4, 0, 21)
	others := rowInputs(3, 0, 22)
	for name, qn := range rowNets(t) {
		for ename, build := range builds {
			eng, err := build()
			if err != nil {
				t.Fatal(err)
			}
			engines := []quant.DotEngine{eng}
			s := quant.NewBatchScratch()
			alone := make([]*tensor.T, len(xs))
			for i, x := range xs {
				alone[i] = qn.ForwardBatch([]*tensor.T{x}, engines, s)[0]
			}
			what := name + "/" + ename
			assertLogitsBitIdentical(t, what+" batch", qn.ForwardBatch(xs, engines, s), alone)
			// Reversed order moves every example to another position.
			rev := []*tensor.T{xs[3], xs[2], xs[1], xs[0]}
			got := qn.ForwardBatch(rev, engines, s)
			assertLogitsBitIdentical(t, what+" reversed", []*tensor.T{got[3], got[2], got[1], got[0]}, alone)
			// Different batch-mates on either side.
			got = qn.ForwardBatch([]*tensor.T{others[0], xs[1], others[1], others[2], xs[2]}, engines, s)
			assertLogitsBitIdentical(t, what+" mixed", []*tensor.T{got[1], got[4]}, alone[1:3])
		}
	}
}

// TestForwardBatchOneAtATimeMatchesNaive pins the evaluation contract:
// one engine fed consecutive one-input ForwardBatch calls over a reused
// scratch realizes, input by input, exactly the noise ForwardNaive draws
// on another engine with the same configuration — for the packed kernel
// and the scalar core, on every rowNets geometry. Evaluate and
// EvaluateParallel (and so -exp table5) rest on it.
func TestForwardBatchOneAtATimeMatchesNaive(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 16
	cfg.M = 1
	cfg.ADCSeed = 29
	builds := map[string]func() (quant.DotEngine, error){
		"packed": func() (quant.DotEngine, error) { return sckernel.New(cfg) },
		"scalar": func() (quant.DotEngine, error) { return quant.NewSconnaEngine(cfg) },
	}
	xs := rowInputs(4, 2, 33)
	for name, qn := range rowNets(t) {
		for ename, build := range builds {
			eng, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			s := quant.NewBatchScratch()
			for i, x := range xs {
				got := qn.ForwardBatch([]*tensor.T{x}, []quant.DotEngine{eng}, s)
				want := qn.ForwardNaive(x, ref)
				assertLogitsBitIdentical(t, fmt.Sprintf("%s/%s input %d", name, ename, i), got, []*tensor.T{want})
			}
		}
	}
}

// BenchmarkQuantForwardBatch times one 32-input micro-batch of the
// served model — sconnaserve's in-process recipe: the width-4 small CNN
// trained on 192 dataset images for 4 epochs, quantized at 8 bits —
// through ForwardBatch on one shared engine: the exact and packed-SC
// engines through the DotRows boundary, and each behind a Dot-only
// wrapper (the per-call path) for comparison. ns/op is per batch.
func BenchmarkQuantForwardBatch(b *testing.B) {
	net := nn.BuildSmallCNN(4, dataset.NumClasses, 11)
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = 11
	examples := dataset.Generate(dcfg, 192)
	net.Train(examples, 4, 16, nn.SGD{LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(11)))
	qn, err := quant.Quantize(net, 8, examples[:48])
	if err != nil {
		b.Fatal(err)
	}
	dcfg.Seed = 7
	xs := make([]*tensor.T, 32)
	for i, ex := range dataset.Generate(dcfg, len(xs)) {
		xs[i] = ex.X
	}
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 64
	cfg.M = 1
	cfg.ADCSeed = 2023
	packed, err := sckernel.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		eng  quant.DotEngine
	}{
		{"exact", quant.ExactEngine{}},
		{"exact-dot", dotOnly{quant.ExactEngine{}}},
		{"sconna-packed", packed},
		{"sconna-packed-dot", dotOnly{packed}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			s := quant.NewBatchScratch()
			engines := []quant.DotEngine{leg.eng}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qn.ForwardBatch(xs, engines, s)
			}
		})
	}
}
