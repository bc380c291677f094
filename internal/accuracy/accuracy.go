// Package accuracy implements the Table V experiment: the Top-1/Top-5
// accuracy drop of integer-quantized CNNs when their dot products run
// through the SCONNA functional core (stochastic streams + PCA + the
// 1.3%-MAPE ADC) instead of exact integer arithmetic.
//
// The paper evaluates four ImageNet CNNs through PyTorch; this package
// trains four proxy CNNs of increasing capacity on the procedural dataset
// (see DESIGN.md "Substitutions") — the depthwise proxies standing in for
// ShuffleNet_V2/MobileNet_V2 and the wider standard-conv proxies for
// GoogleNet/ResNet50 — and measures the same drop mechanism: per-chunk
// stochastic quantization plus ADC conversion error propagating through
// the layers, with larger models more error-tolerant.
package accuracy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
)

// Spec describes one proxy model of the study.
type Spec struct {
	// Name is the paper CNN this proxy stands in for.
	Name string
	// Depthwise selects the depthwise-separable topology (mobile CNNs).
	Depthwise bool
	// Width scales the channel counts (model capacity).
	Width int
	// Seed makes training deterministic.
	Seed int64
	// Noise overrides the study's dataset noise for this proxy when
	// positive: the lower-capacity depthwise proxies need a gentler task
	// to train at all, just as their ImageNet counterparts start from
	// lower baseline accuracies.
	Noise float64
}

// DefaultSpecs mirrors the paper's four CNNs ordered as Table V:
// GoogleNet, ResNet50, MobileNet_V2, ShuffleNet_V2.
func DefaultSpecs() []Spec {
	return []Spec{
		{Name: "GoogleNet(proxy)", Depthwise: false, Width: 10, Seed: 101},
		{Name: "ResNet50(proxy)", Depthwise: false, Width: 14, Seed: 102},
		{Name: "MobileNet_V2(proxy)", Depthwise: true, Width: 8, Seed: 103, Noise: 0.3},
		{Name: "ShuffleNet_V2(proxy)", Depthwise: true, Width: 10, Seed: 104, Noise: 0.3},
	}
}

// PaperTableV records the published Top-1/Top-5 drops (percent) for
// comparison: GoogleNet 0.1/0.1, ResNet50 0.4/0.3, MobileNet_V2 1.5/0.7,
// ShuffleNet_V2 0.5/0.4, gmean 0.4/0.3.
var PaperTableV = map[string][2]float64{
	"GoogleNet(proxy)":     {0.1, 0.1},
	"ResNet50(proxy)":      {0.4, 0.3},
	"MobileNet_V2(proxy)":  {1.5, 0.7},
	"ShuffleNet_V2(proxy)": {0.5, 0.4},
}

// Row is one Table V line.
type Row struct {
	Model      string
	Params     int
	Top1Exact  float64 // percent
	Top5Exact  float64
	Top1Sconna float64
	Top5Sconna float64
	Drop1      float64 // percentage points
	Drop5      float64
}

// Options controls the study's cost/fidelity trade-off.
type Options struct {
	// TrainExamples and Epochs size the training runs.
	TrainExamples int
	Epochs        int
	// EvalExamples bounds the test-set size used for both engines.
	EvalExamples int
	// VDPESize is the functional core's N (chunking granularity).
	VDPESize int
	// Bits is the operand precision (8 in the paper).
	Bits int
	// IdealADC disables the converter error (isolates stream error).
	IdealADC bool
	// Noise is the dataset's additive noise amplitude. The study raises
	// it above the default so test examples sit near decision boundaries
	// and sub-percent arithmetic perturbations become measurable, like
	// ImageNet's fine-grained classes do for the paper.
	Noise float64
	// Workers bounds the study's concurrency: proxy models train in
	// parallel and each model's batched inference fans example shards
	// across engine-per-shard workers. <= 0 selects GOMAXPROCS. The
	// results are bit-identical for every worker count (see
	// quant.EvaluateParallel).
	Workers int
	// TrainWorkers fans each proxy's minibatch gradient computation
	// across data-parallel workers (nn.TrainParallel): != 0 enables the
	// sharded trainer (< 0 selects GOMAXPROCS), whose result is
	// bit-identical at every worker count. 0 keeps the legacy serial
	// nn.Train walk, which differs from the sharded trainer only in
	// gradient summation order (so trained weights — and with them the
	// study's row values — differ in float rounding between the two
	// trainers, while each trainer is individually deterministic).
	TrainWorkers int
}

// DefaultOptions returns the full-study configuration.
func DefaultOptions() Options {
	return Options{
		TrainExamples: 480,
		Epochs:        14,
		EvalExamples:  160,
		VDPESize:      176,
		Bits:          8,
		Noise:         0.55,
	}
}

// QuickOptions returns a reduced configuration for tests and benchmarks:
// smaller training runs on a gentler dataset than the full study.
func QuickOptions() Options {
	o := DefaultOptions()
	o.TrainExamples = 240
	o.Epochs = 10
	o.EvalExamples = 40
	o.VDPESize = 64
	o.Noise = 0.3
	return o
}

// ShortOptions returns the `go test -short` tier: the smallest runs that
// still exercise the full train/quantize/evaluate pipeline. Accuracy
// floors do not hold at this scale — short-mode tests assert structure
// and error bounds, not convergence.
func ShortOptions() Options {
	o := QuickOptions()
	o.TrainExamples = 96
	o.Epochs = 3
	o.EvalExamples = 16
	o.VDPESize = 32
	return o
}

// Prepared carries the one-time trained and quantized artifacts of one
// proxy spec: the fixture the evaluation stage (and tests sharing fixtures
// across files) run against.
type Prepared struct {
	Spec Spec
	Net  *nn.Network
	QN   *quant.Network
	Test []nn.Example
}

// Prepare generates the spec's dataset, trains the proxy CNN and
// quantizes it. The whole stage is deterministic in (spec, opts): every
// RNG is seeded from spec.Seed.
func Prepare(spec Spec, opts Options) (*Prepared, error) {
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = spec.Seed
	if opts.Noise > 0 {
		dcfg.Noise = opts.Noise
	}
	if spec.Noise > 0 {
		dcfg.Noise = spec.Noise
	}
	examples := dataset.Generate(dcfg, opts.TrainExamples+opts.EvalExamples)
	train, test := dataset.Split(examples, 0.25)
	if len(test) > opts.EvalExamples {
		test = test[:opts.EvalExamples]
	}

	var net *nn.Network
	epochs := opts.Epochs
	lr := 0.05
	if spec.Depthwise {
		net = nn.BuildDepthwiseCNN(spec.Width, dataset.NumClasses, spec.Seed)
		// Depthwise-separable stacks diverge at the standard LR and
		// converge slower; train them gentler and longer, as their
		// ImageNet counterparts also require.
		lr = 0.03
		epochs *= 2
	} else {
		net = nn.BuildSmallCNN(spec.Width, dataset.NumClasses, spec.Seed)
	}
	opt := nn.SGD{LR: lr, Momentum: 0.9}
	if opts.TrainWorkers != 0 {
		workers := opts.TrainWorkers
		if workers < 0 {
			workers = 0 // nn.TrainParallel: <= 0 selects GOMAXPROCS
		}
		if _, err := net.TrainParallel(train, epochs, 16, opt, rand.New(rand.NewSource(spec.Seed)), workers); err != nil {
			return nil, fmt.Errorf("accuracy: %s: data-parallel training: %w", spec.Name, err)
		}
	} else {
		net.Train(train, epochs, 16, opt, rand.New(rand.NewSource(spec.Seed)))
	}

	calib := train
	if len(calib) > 48 {
		calib = calib[:48]
	}
	qn, err := quant.Quantize(net, opts.Bits, calib)
	if err != nil {
		return nil, fmt.Errorf("accuracy: %s: %w", spec.Name, err)
	}
	return &Prepared{Spec: spec, Net: net, QN: qn, Test: test}, nil
}

// CoreConfig returns the functional-core operating point the prepared
// model evaluates against under opts.
func (p *Prepared) CoreConfig(opts Options) core.Config {
	ccfg := core.DefaultConfig()
	ccfg.Bits = opts.Bits
	ccfg.N = opts.VDPESize
	ccfg.M = 1
	ccfg.IdealADC = opts.IdealADC
	ccfg.ADCSeed = p.Spec.Seed
	return ccfg
}

// Evaluate runs the exact-integer and SCONNA evaluations of the prepared
// model and returns its Table V row. Both evaluations fan example shards
// across opts.Workers goroutines with one dot-product engine per shard
// (an engine holds scratch and must not be shared); every dot is a pure
// function of its operands, so the row is bit-identical at every worker
// count.
func (p *Prepared) Evaluate(opts Options) (Row, error) {
	row := Row{Model: p.Spec.Name, Params: p.Net.NumParams()}
	e1, e5, err := p.QN.EvaluateParallel(p.Test, 5, quant.SharedEngine(quant.ExactEngine{}), opts.Workers)
	if err != nil {
		return Row{}, fmt.Errorf("accuracy: %s: exact evaluation: %w", p.Spec.Name, err)
	}
	s1, s5, err := p.QN.EvaluateParallel(p.Test, 5, quant.SconnaEngineFactory(p.CoreConfig(opts)), opts.Workers)
	if err != nil {
		return Row{}, fmt.Errorf("accuracy: %s: SCONNA evaluation: %w", p.Spec.Name, err)
	}
	row.Top1Exact, row.Top5Exact = e1*100, e5*100
	row.Top1Sconna, row.Top5Sconna = s1*100, s5*100
	row.Drop1 = row.Top1Exact - row.Top1Sconna
	row.Drop5 = row.Top5Exact - row.Top5Sconna
	return row, nil
}

// RunSpec trains, quantizes and evaluates one proxy model, returning its
// Table V row.
func RunSpec(spec Spec, opts Options) (Row, error) {
	p, err := Prepare(spec, opts)
	if err != nil {
		return Row{}, err
	}
	return p.Evaluate(opts)
}

// Run executes the full Table V study — the per-spec train/quantize/eval
// pipelines fan across opts.Workers goroutines; each pipeline is
// deterministic in its spec, so the study is bit-identical to the serial
// path — and appends a gmean row computed the way the paper reports it
// (geometric mean over per-model drops, floored at 0.05 points to keep
// the gmean defined when a model shows no drop).
func Run(specs []Spec, opts Options) ([]Row, error) {
	inner := opts
	if len(specs) > 1 {
		// The spec pipelines already occupy the pool; keep each
		// pipeline's evaluation shards serial rather than stacking a
		// second pool per spec on the same cores. Evaluation results
		// are worker-invariant, so this changes scheduling only.
		inner.Workers = 1
	}
	rows, err := parallel.Map(opts.Workers, len(specs), func(i int) (Row, error) {
		return RunSpec(specs[i], inner)
	})
	if err != nil {
		return nil, err
	}
	g := Row{Model: "Gmean"}
	g.Drop1 = gmeanFloored(rows, func(r Row) float64 { return r.Drop1 })
	g.Drop5 = gmeanFloored(rows, func(r Row) float64 { return r.Drop5 })
	rows = append(rows, g)
	return rows, nil
}

func gmeanFloored(rows []Row, f func(Row) float64) float64 {
	s := 0.0
	for _, r := range rows {
		v := f(r)
		if v < 0.05 {
			v = 0.05
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(rows)))
}
