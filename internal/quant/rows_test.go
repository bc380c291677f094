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

// TestExactDotRowsMatchesDot: every row of the exact engine's tile GEMM
// equals its Dot per (row, DKV) bit for bit — over row and DKV counts
// off the micro-kernel's multiples (odd rows, DKVs beyond the groups of
// four), zero counts, all-zero rows, a dense-layer-wide row, and
// adversarial operands near ±2^31 whose sums leave int32 (the packed
// kernel must step aside) or wrap int64 (the plain loops must wrap like
// Dot).
func TestExactDotRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type gen func() int
	small := func() int { return rng.Intn(256) }
	weight := func() int { return rng.Intn(511) - 255 }
	huge := func() int { return 1<<31 - 1 - rng.Intn(4) - rng.Intn(2)*(1<<32-2) }
	wide := func() int { return rng.Int() - rng.Int() }
	cases := []struct {
		name      string
		nr, nd, s int
		row, w    gen
		zeroRows  bool
	}{
		{"2x4 exact fit", 2, 4, 9, small, weight, false},
		{"odd rows, 4+3 DKVs", 7, 7, 13, small, weight, false},
		{"one DKV", 5, 1, 9, small, weight, false},
		{"one single-lane row", 1, 9, 1, small, weight, false},
		{"zero rows", 0, 5, 9, small, weight, false},
		{"zero DKVs", 3, 0, 9, small, weight, false},
		{"all-zero rows", 6, 8, 36, small, weight, true},
		{"dense-wide", 3, 10, 1000, small, weight, false},
		{"near 2^31 weights", 4, 8, 5, small, huge, false},
		{"near 2^31 rows", 4, 8, 5, huge, weight, false},
		{"int64 wrap", 3, 5, 7, wide, wide, false},
		{"negative rows", 4, 4, 3, weight, weight, false},
	}
	for _, tc := range cases {
		rows := make([]int, tc.nr*tc.s)
		for i := range rows {
			if !tc.zeroRows {
				rows[i] = tc.row()
			}
		}
		dkvs := make([]int, tc.nd*tc.s)
		for i := range dkvs {
			dkvs[i] = tc.w()
		}
		out := make([]int, tc.nr*tc.nd)
		quant.ExactEngine{}.DotTile(rows, dkvs, tc.s, out)
		for j := 0; j < tc.nd; j++ {
			for i := 0; i < tc.nr; i++ {
				want := quant.ExactEngine{}.Dot(rows[i*tc.s:(i+1)*tc.s], dkvs[j*tc.s:(j+1)*tc.s])
				if got := out[j*tc.nr+i]; got != want {
					t.Fatalf("%s: row %d DKV %d = %d, Dot = %d", tc.name, i, j, got, want)
				}
			}
		}
	}
}

// rowNets builds the networks the tile-boundary tests sweep: the small
// and depthwise CNNs (padded windows, standard and depthwise grouping),
// a network whose convolutions never reach into padding (pad-0 3x3 and
// 1x1), and three around the pooled epilogue: pools over odd extents
// (14x14 -> 7x7 -> 3x3, the last into a dense layer through a flatten),
// a standard and a depthwise stride-2 conv each before a pool, and a
// network that ends in a pool over an odd extent (7x7), which the
// epilogue leaves to the float pool since no quantizer follows it.
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
	oddPool := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D("c1", 1, 4, 3, 1, 0, false, rng), // 14x14
		&nn.ReLU{},
		&nn.MaxPool2{}, // 7x7
		nn.NewConv2D("c2", 4, 6, 3, 1, 1, false, rng),
		&nn.ReLU{},
		&nn.MaxPool2{}, // 3x3
		&nn.Flatten{},
		nn.NewDense("fc", 6*3*3, 3, rng),
	}}
	stridePool := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D("c1", 1, 4, 3, 2, 1, false, rng), // 8x8
		&nn.ReLU{},
		&nn.MaxPool2{}, // 4x4
		nn.NewConv2D("dw", 4, 4, 3, 2, 1, true, rng), // 2x2
		&nn.ReLU{},
		&nn.MaxPool2{}, // 1x1
		&nn.GlobalAvgPool{},
		nn.NewDense("fc", 4, 3, rng),
	}}
	poolLast := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D("c1", 1, 3, 3, 1, 1, false, rng),
		&nn.ReLU{},
		&nn.MaxPool2{}, // 8x8
		nn.NewConv2D("c2", 3, 2, 2, 1, 0, false, rng), // 7x7
		&nn.ReLU{},
		&nn.MaxPool2{}, // 3x3: the logits
	}}
	calib := []nn.Example{{X: rowInputs(1, 0, 3)[0]}}
	out := make(map[string]*quant.Network)
	for name, net := range map[string]*nn.Network{
		"small":       nn.BuildSmallCNN(4, 8, 1),
		"depthwise":   nn.BuildDepthwiseCNN(4, 8, 2),
		"full":        full,
		"odd-pool":    oddPool,
		"stride-pool": stridePool,
		"pool-last":   poolLast,
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
// whole batches through DotTile must match the same engine hidden
// behind a Dot-only wrapper bit for bit — noisy ADC over consecutive
// batches, and an ideal ADC on mixed sparse/dense batches.
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

// TestForwardBatchCompositionIndependent: an example's logits are a pure
// function of the example — bit-identical served alone, at every
// position of a batch, and beside different batch-mates — on the noisy
// packed engine and the exact engine (both through DotTile) and the
// noisy scalar engine (Dot per row), over every rowNets geometry.
func TestForwardBatchCompositionIndependent(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 16
	cfg.M = 2
	cfg.ADCSeed = 23
	builds := map[string]func() (quant.DotEngine, error){
		"packed": func() (quant.DotEngine, error) { return sckernel.New(cfg) },
		"scalar": func() (quant.DotEngine, error) { return quant.NewSconnaEngine(cfg) },
		"exact":  func() (quant.DotEngine, error) { return quant.ExactEngine{}, nil },
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
// on another engine with the same configuration — for the packed kernel,
// the scalar core and exact arithmetic, on every rowNets geometry, with
// every other input sparse enough for the exact engine's compacted path.
// Evaluate and EvaluateParallel (and so -exp table5) rest on it.
func TestForwardBatchOneAtATimeMatchesNaive(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 16
	cfg.M = 1
	cfg.ADCSeed = 29
	builds := map[string]func() (quant.DotEngine, error){
		"packed": func() (quant.DotEngine, error) { return sckernel.New(cfg) },
		"scalar": func() (quant.DotEngine, error) { return quant.NewSconnaEngine(cfg) },
		"exact":  func() (quant.DotEngine, error) { return quant.ExactEngine{}, nil },
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

// TestForwardBatchMatchesTruncatedReference pins the engines whose
// result depends only on nonzero lanes — exact arithmetic and the
// ideal-ADC scalar and packed SC engines — to the padding-truncating
// reference the lowering used before it took full windows: their logits
// did not move. Batches mix sparse-path and dense-path examples; the
// first conv's op tally shows the zero-skipping engines (exact and
// packed-ideal) took the compacted path.
func TestForwardBatchMatchesTruncatedReference(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bits = 8
	cfg.N = 16
	cfg.M = 1
	cfg.IdealADC = true
	builds := map[string]func() (quant.DotEngine, error){
		"exact":        func() (quant.DotEngine, error) { return quant.ExactEngine{}, nil },
		"scalar-ideal": func() (quant.DotEngine, error) { return quant.NewSconnaEngine(cfg) },
		"packed-ideal": func() (quant.DotEngine, error) { return sckernel.New(cfg) },
	}
	xs := rowInputs(5, 2, 37)
	for name, qn := range rowNets(t) {
		for ename, build := range builds {
			eng, err := build()
			if err != nil {
				t.Fatal(err)
			}
			s := quant.NewBatchScratch()
			s.Ops = qn.OpRecorder()
			got := qn.ForwardBatch(xs, []quant.DotEngine{eng}, s)
			for i, x := range xs {
				want := qn.ForwardTruncated(x, eng)
				assertLogitsBitIdentical(t, fmt.Sprintf("%s/%s input %d", name, ename, i), got[i:i+1], []*tensor.T{want})
			}
			c1 := s.Ops.Snapshot().Layers[0]
			if sparse := c1.Exec.Total() < c1.Dense.Total(); sparse != (ename != "scalar-ideal") {
				t.Fatalf("%s/%s: first conv executed %d of %d dense ops: sparse path taken = %v", name, ename, c1.Exec.Total(), c1.Dense.Total(), sparse)
			}
		}
	}
}

// servedNet is sconnaserve's in-process model — the width-4 small CNN
// trained on 192 dataset images for 4 epochs, quantized at 8 bits —
// with a 32-input micro-batch of dataset images and the served SC
// engine (8-bit, N = 64, M = 1, ADC seed 2023).
func servedNet(tb testing.TB) (*quant.Network, []*tensor.T, *sckernel.Engine) {
	tb.Helper()
	net := nn.BuildSmallCNN(4, dataset.NumClasses, 11)
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = 11
	examples := dataset.Generate(dcfg, 192)
	net.Train(examples, 4, 16, nn.SGD{LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(11)))
	qn, err := quant.Quantize(net, 8, examples[:48])
	if err != nil {
		tb.Fatal(err)
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
		tb.Fatal(err)
	}
	return qn, xs, packed
}

// TestForwardBatchAllocs pins the allocation-free lowering: a warm
// 32-input ForwardBatch of the served model allocates at most 4 times
// (the returned logits' slab, tensors, shapes and slice) on the exact
// and the packed SC engine. The race detector's instrumentation
// allocates, so the test does not run under -race.
func TestForwardBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	qn, xs, packed := servedNet(t)
	for name, eng := range map[string]quant.DotEngine{"exact": quant.ExactEngine{}, "sconna-packed": packed} {
		s := quant.NewBatchScratch()
		engines := []quant.DotEngine{eng}
		qn.ForwardBatch(xs, engines, s) // grow the scratch
		if n := testing.AllocsPerRun(10, func() { qn.ForwardBatch(xs, engines, s) }); n > 4 {
			t.Errorf("%s: %v allocations per warm 32-input ForwardBatch, want at most 4", name, n)
		}
	}
}

// BenchmarkQuantForwardBatch times one 32-input micro-batch of the
// served model (servedNet) through ForwardBatch on one shared engine:
// the exact and packed-SC engines through the DotTile boundary, and
// each behind a Dot-only wrapper (the per-call path) for comparison.
// ns/op is per batch.
func BenchmarkQuantForwardBatch(b *testing.B) {
	qn, xs, packed := servedNet(b)
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
