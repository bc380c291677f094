package quant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// EngineFactory builds the DotEngine that evaluates one shard of a
// batched-inference run. Stateful engines (SconnaEngine owns a core.VDPC
// whose ADC noise streams advance per dot product — it must never be
// shared across goroutines) get one instance per shard, keyed off the
// shard index so the realized noise depends only on the shard partition,
// never on worker count or scheduling.
type EngineFactory func(shard int) (DotEngine, error)

// SharedEngine adapts a stateless engine (e.g. ExactEngine) into a
// factory handing every shard the same instance. The engine must be safe
// for concurrent use; the integer engines here hold no state at all.
func SharedEngine(e DotEngine) EngineFactory {
	return func(int) (DotEngine, error) { return e, nil }
}

// SconnaEngineFactory returns a factory building one SCONNA functional
// engine per shard. Each shard's VDPC draws its ADC noise from a seed
// deterministically derived from cfg.ADCSeed and the shard index, so a
// parallel evaluation realizes the same noise streams for any worker
// count — including one.
func SconnaEngineFactory(cfg core.Config) EngineFactory {
	return func(shard int) (DotEngine, error) {
		scfg := cfg
		scfg.ADCSeed = cfg.ADCSeed + int64(shard)*1000003
		return NewSconnaEngine(scfg)
	}
}

// EvalShardSize is the number of examples evaluated per engine shard. It
// is a fixed property of the evaluation (not of the machine) so that the
// shard partition — and with it every stateful engine's noise stream —
// is identical on every host and at every worker count.
const EvalShardSize = 16

// evaluateBlock pushes examples through engine one at a time, returning
// the top-1 and top-k hit counts. Both the serial Evaluate and each
// parallel shard run through this one code path. The scratch is created
// here — one per block, next to the engine it serves — so a stateful
// engine and its scratch share the same single-goroutine ownership.
// Examples go one per ForwardBatch call, never batched: a shared noisy
// engine then realizes each example's ForwardNaive noise stream in
// turn, so the result is independent of how the lowering batches.
func (q *Network) evaluateBlock(examples []nn.Example, k int, engine DotEngine) (c1, ck int) {
	scratch := NewBatchScratch()
	xs, engines := make([]*tensor.T, 1), []DotEngine{engine}
	for _, ex := range examples {
		xs[0] = ex.X
		logits := q.ForwardBatch(xs, engines, scratch)[0]
		if logits.ArgMax() == ex.Label {
			c1++
		}
		lv := logits.Data[ex.Label]
		higher := 0
		for i, v := range logits.Data {
			if i != ex.Label && v > lv {
				higher++
			}
		}
		if higher < k {
			ck++
		}
	}
	return c1, ck
}

// EvaluateParallel returns top-1 and top-k accuracy of quantized
// inference over the examples, fanning fixed-size example shards across a
// bounded worker pool with one factory-built engine per shard. Hit counts
// merge by integer summation, so the result is bit-identical to running
// the shards serially in order (workers=1) for any worker count; workers
// <= 0 selects GOMAXPROCS, the convention every runner in the tree
// shares (accel.Runner, scalability.Runner, nn.TrainParallel).
func (q *Network) EvaluateParallel(examples []nn.Example, k int, factory EngineFactory, workers int) (top1, topk float64, err error) {
	if len(examples) == 0 {
		return 0, 0, nil
	}
	// Resolve here rather than leaning on ForEach's default, so the
	// GOMAXPROCS convention is this function's contract (pinned by the
	// worker-default table test), not an implementation detail below it.
	workers = parallel.Workers(workers)
	spans := parallel.Spans(len(examples), EvalShardSize)
	c1s := make([]int, len(spans))
	cks := make([]int, len(spans))
	err = parallel.ForEach(workers, len(spans), func(s int) error {
		engine, ferr := factory(s)
		if ferr != nil {
			return fmt.Errorf("quant: building engine for shard %d: %w", s, ferr)
		}
		c1s[s], cks[s] = q.evaluateBlock(examples[spans[s].Lo:spans[s].Hi], k, engine)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	c1, ck := 0, 0
	for s := range spans {
		c1 += c1s[s]
		ck += cks[s]
	}
	return float64(c1) / float64(len(examples)), float64(ck) / float64(len(examples)), nil
}
