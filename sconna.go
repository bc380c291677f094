package sconna

import (
	"io"

	"repro/internal/accel"
	"repro/internal/accuracy"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/pca"
	"repro/internal/photonics"
	"repro/internal/quant"
	"repro/internal/scalability"
)

// Version identifies this reproduction release.
const Version = "1.0.0"

// Functional plane (the paper's primary contribution, Section IV).
type (
	// CoreConfig selects the functional operating point of a SCONNA VDPC.
	CoreConfig = core.Config
	// VDPE is one vector-dot-product element (N OSMs + filter bank +
	// PCA pair).
	VDPE = core.VDPE
	// VDPC is a vector-dot-product core of M VDPEs.
	VDPC = core.VDPC
	// OSM is one optical stochastic multiplier.
	OSM = core.OSM
	// SignedResult is a VDPE dot-product output.
	SignedResult = core.SignedResult
)

// DefaultCoreConfig returns the paper's SCONNA functional operating point
// (B=8, N=M=176, FWHM 0.8 nm, 0.25 nm DWDM spacing, 1.3% ADC MAPE).
func DefaultCoreConfig() CoreConfig { return core.DefaultConfig() }

// NewVDPE builds one vector-dot-product element.
func NewVDPE(cfg CoreConfig) (*VDPE, error) { return core.NewVDPE(cfg) }

// NewVDPC builds a vector-dot-product core of cfg.M VDPEs.
func NewVDPC(cfg CoreConfig) (*VDPC, error) { return core.NewVDPC(cfg) }

// Performance plane (Section VI).
type (
	// AccelConfig describes one accelerator for the performance model.
	AccelConfig = accel.Config
	// AccelResult is one (accelerator, model) simulation outcome.
	AccelResult = accel.Result
	// AccelJob is one (accelerator, model) pair of a design-space sweep.
	AccelJob = accel.Job
	// Fig9Data aggregates the Fig. 9 comparison.
	Fig9Data = accel.Fig9Data
	// Model is a CNN workload descriptor.
	Model = models.Model
	// AccelRunner is the cache-aware evaluation engine of the
	// performance plane: it memoizes Simulate results in a
	// content-addressed store (optionally persisted on disk) and fans
	// misses across a bounded worker pool.
	AccelRunner = accel.Runner
	// AccelRunnerOptions configures an AccelRunner.
	AccelRunnerOptions = accel.RunnerOptions
	// CacheStats counts result-cache traffic (hits by layer, misses,
	// evictions, disk writes).
	CacheStats = cache.Stats
)

// NewAccelRunner builds a cache-aware performance-plane runner. With a
// CacheDir the result store persists across processes, so repeated
// sweeps recompute only changed cells.
func NewAccelRunner(opts AccelRunnerOptions) (*AccelRunner, error) {
	return accel.NewRunner(opts)
}

// SconnaAccel returns the paper's SCONNA accelerator configuration
// (1024 VDPEs, N=M=176, 30 Gbps).
func SconnaAccel() AccelConfig { return accel.Sconna() }

// MAMAccel returns the MAM (HOLYLIGHT) baseline (3971 VDPEs, N=22,
// 4-bit slices at 5 GS/s).
func MAMAccel() AccelConfig { return accel.MAM() }

// AMMAccel returns the AMM (DEAP-CNN) baseline (3172 VDPEs, N=16,
// 4-bit slices at 5 GS/s).
func AMMAccel() AccelConfig { return accel.AMM() }

// Simulate runs batch-1 weight-stationary inference of model on the
// accelerator and returns timing/power/area results.
func Simulate(cfg AccelConfig, model Model) (AccelResult, error) {
	return accel.Simulate(cfg, model)
}

// SimulateAll fans a design-space sweep across a bounded worker pool and
// returns the results in job order; workers <= 0 selects GOMAXPROCS. The
// output is bit-identical to a serial loop for any worker count.
func SimulateAll(jobs []AccelJob, workers int) ([]AccelResult, error) {
	return accel.SimulateAll(jobs, workers)
}

// RunFig9 regenerates the paper's Fig. 9 comparison (SCONNA vs MAM vs AMM
// over GoogleNet, ResNet50, MobileNet_V2, ShuffleNet_V2), fanning the 12
// simulations across all cores.
func RunFig9() (Fig9Data, error) { return accel.Fig9Default() }

// RunFig9Parallel is RunFig9 with an explicit worker count (<= 0 selects
// GOMAXPROCS); the result is identical for every worker count.
func RunFig9Parallel(workers int) (Fig9Data, error) {
	return accel.Fig9Parallel([]AccelConfig{accel.Sconna(), accel.MAM(), accel.AMM()},
		models.Evaluated(), workers)
}

// EvaluatedModels returns the four CNNs of the Fig. 9 evaluation.
func EvaluatedModels() []Model { return models.Evaluated() }

// TableIIModels returns the four CNNs of the paper's Table II census.
func TableIIModels() []Model { return models.TableIIModels() }

// Scalability analysis (Section V).
type (
	// ScalabilityConfig carries the Table III constants for Eq. 2-4.
	ScalabilityConfig = scalability.Config
	// TableICell is one reproduced Table I entry.
	TableICell = scalability.TableICell
	// SconnaScaling reports the Section V-B N determination.
	SconnaScaling = scalability.SconnaScaling
	// ScalabilityRunner is the cache-aware Table I evaluation engine.
	ScalabilityRunner = scalability.Runner
	// ScalabilityRunnerOptions configures a ScalabilityRunner.
	ScalabilityRunnerOptions = scalability.RunnerOptions
)

// NewScalabilityRunner builds a cache-aware Table I runner over the
// given operating point.
func NewScalabilityRunner(cfg ScalabilityConfig, opts ScalabilityRunnerOptions) (*ScalabilityRunner, error) {
	return scalability.NewRunner(cfg, opts)
}

// DefaultScalabilityConfig returns the Table III operating point.
func DefaultScalabilityConfig() ScalabilityConfig { return scalability.DefaultConfig() }

// TableI regenerates the paper's Table I (max VDPE size N for AMM/MAM at
// 4/6-bit over 1-10 GS/s), solving the cells across all cores.
func TableI() []TableICell { return scalability.DefaultConfig().TableI() }

// TableIParallel is TableI with an explicit worker count (<= 0 selects
// GOMAXPROCS); the table is identical for every worker count.
func TableIParallel(workers int) []TableICell {
	return scalability.DefaultConfig().TableIParallel(workers)
}

// SolveSconnaN reproduces the Section V-B determination of SCONNA's VDPC
// size at the given stream bitrate (30 Gbps in the paper).
func SolveSconnaN(bitrateHz float64) SconnaScaling {
	return scalability.DefaultConfig().SolveSconna(bitrateHz)
}

// Device-level experiments (Figs. 6-7).

// Fig7aPoint is one point of the bitrate-vs-FWHM frontier of Fig. 7(a).
type Fig7aPoint struct {
	FWHMNM    float64
	BitrateHz float64
}

// Fig7a sweeps the OAG's maximum bitrate against resonance FWHM at the
// given detector sensitivity (-28 dBm in the paper), reproducing the
// Fig. 7(a) frontier that saturates at 40 Gbps near 0.8 nm. The sweep
// points are independent device solves, so they fan across all cores;
// the ordered result is identical to a serial sweep.
func Fig7a(sensitivityDBm float64, fwhms []float64) []Fig7aPoint {
	out, err := parallel.Map(0, len(fwhms), func(i int) (Fig7aPoint, error) {
		g := photonics.NewOAG(fwhms[i])
		return Fig7aPoint{FWHMNM: fwhms[i], BitrateHz: g.MaxBitrate(sensitivityDBm)}, nil
	})
	if err != nil { // unreachable: the device solve cannot fail
		panic(err)
	}
	return out
}

// Fig7b sweeps the PCA analog output voltage against the fraction of ones
// accumulated (Fig. 7(b) linearity experiment).
func Fig7b(steps int) []pca.AlphaPoint {
	return pca.DefaultConfig().Fig7b(steps)
}

// Accuracy study (Table V).
type (
	// AccuracySpec describes one proxy model of the Table V study.
	AccuracySpec = accuracy.Spec
	// AccuracyRow is one Table V line.
	AccuracyRow = accuracy.Row
	// AccuracyOptions sizes the Table V study.
	AccuracyOptions = accuracy.Options
)

// RunTableV executes the accuracy-drop study over the default proxy
// models with the given options (accuracy.DefaultOptions for the full
// study, accuracy.QuickOptions for a reduced run).
func RunTableV(opts AccuracyOptions) ([]AccuracyRow, error) {
	return accuracy.Run(accuracy.DefaultSpecs(), opts)
}

// Quantized compute plane.
type (
	// QuantNetwork is an integer-quantized network executable on any
	// DotEngine.
	QuantNetwork = quant.Network
	// DotEngine is the pluggable integer dot-product substrate.
	DotEngine = quant.DotEngine
	// EngineFactory builds one engine per shard or pool slot.
	EngineFactory = quant.EngineFactory
	// ExactDotEngine is the exact-integer reference engine.
	ExactDotEngine = quant.ExactEngine
)

// QuantizeNetwork post-training-quantizes a trained float network to the
// given operand precision, calibrating activation scales over the
// calibration examples.
func QuantizeNetwork(src *nn.Network, bits int, calibration []nn.Example) (*QuantNetwork, error) {
	return quant.Quantize(src, bits, calibration)
}

// SconnaDotEngineFactory returns an EngineFactory building one SCONNA
// functional engine per slot, every one configured as cfg — the engine
// the serving plane pools.
func SconnaDotEngineFactory(cfg CoreConfig) EngineFactory {
	return quant.SconnaEngineFactory(cfg)
}

// SharedDotEngine adapts a stateless engine into a factory handing every
// slot the same instance.
func SharedDotEngine(e DotEngine) EngineFactory { return quant.SharedEngine(e) }

// LoadQuantNetwork reconstructs a quantized model artifact written by
// (*QuantNetwork).Save — the self-describing format sconnaserve's
// -model flags load, carrying the full quantized architecture so no
// retraining or requantization happens at boot.
func LoadQuantNetwork(r io.Reader) (*QuantNetwork, error) { return quant.Load(r) }

// LoadQuantNetworkFile reconstructs a quantized model artifact written
// by (*QuantNetwork).SaveFile.
func LoadQuantNetworkFile(path string) (*QuantNetwork, error) { return quant.LoadFile(path) }

// Shard names one machine's slice ("i/n") of a distributed sweep.
type Shard = fleet.Shard

// ParseShard parses a "-shard i/n" spec; the empty string is the
// disabled zero value (full span).
func ParseShard(s string) (Shard, error) { return fleet.ParseShard(s) }

// DefaultAccuracyOptions returns the full Table V study configuration.
func DefaultAccuracyOptions() AccuracyOptions { return accuracy.DefaultOptions() }

// QuickAccuracyOptions returns a reduced Table V configuration for smoke
// runs.
func QuickAccuracyOptions() AccuracyOptions { return accuracy.QuickOptions() }
