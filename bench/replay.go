package main

import (
	"runtime"
	"time"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// probeEngine wraps a DotEngine to count calls and lanes and, when
// capturing, to copy every call's operands. It forwards Name and the
// quant.ZeroSkipper capability: without SkipsZeros the exact engine
// would silently leave the sparse path and the probe would measure a
// different program.
type probeEngine struct {
	inner        quant.DotEngine
	calls, lanes int
	capture      bool
	div, dkv     []int
	off          []int // call i's operands are [off[i], off[i+1])
}

func newProbe(inner quant.DotEngine, capture bool) *probeEngine {
	return &probeEngine{inner: inner, capture: capture, off: []int{0}}
}

// Dot implements quant.DotEngine.
func (p *probeEngine) Dot(div, dkv []int) int {
	p.calls++
	p.lanes += len(div)
	if p.capture {
		p.div = append(p.div, div...)
		p.dkv = append(p.dkv, dkv...)
		p.off = append(p.off, len(p.div))
	}
	return p.inner.Dot(div, dkv)
}

// Name implements quant.DotEngine.
func (p *probeEngine) Name() string { return p.inner.Name() }

// SkipsZeros implements quant.ZeroSkipper by asking the wrapped engine.
func (p *probeEngine) SkipsZeros() bool {
	z, ok := p.inner.(quant.ZeroSkipper)
	return ok && z.SkipsZeros()
}

// replayBatches is how many distinct 32-input batches a replay pass
// covers.
const replayBatches = 8

// replayQuant measures the quant and dot layers outside the server:
// 32-input batches of the workload's inputs replayed through
// ForwardBatch on fresh engines of the workload's kind, then one
// batch's captured dot operands replayed through a fresh engine in a
// single timed loop (timing each call would swamp calls of 10-80 ns).
// budget bounds the time spent in each timed loop.
func replayQuant(qn *quant.Network, factory quant.EngineFactory, inputs [][]float32, budget time.Duration) (map[string]float64, error) {
	var batches [][]*tensor.T
	for b := 0; b < replayBatches && (b+1)*batch <= len(inputs); b++ {
		batches = append(batches, tensors(inputs[b*batch:(b+1)*batch]))
	}
	perPass := float64(len(batches) * batch)
	// sink keeps the timed results observable so the compiler cannot drop
	// the timed calls.
	var sink int
	defer runtime.KeepAlive(&sink)
	pass := func(eng quant.DotEngine, s *quant.BatchScratch) {
		for _, xs := range batches {
			sink += len(qn.ForwardBatch(xs, []quant.DotEngine{eng}, s))
		}
	}
	out := make(map[string]float64)

	// Forward time per inference: the median of three timed reps over a
	// warm scratch, each rep as many passes as fit in budget/3.
	eng, err := factory(0)
	if err != nil {
		return nil, err
	}
	s := quant.NewBatchScratch()
	t0 := time.Now()
	pass(eng, s)
	passes := max(1, int((budget/3)/max(time.Since(t0), time.Microsecond)))
	var reps []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < passes; i++ {
			pass(eng, s)
		}
		reps = append(reps, float64(time.Since(t).Nanoseconds())/(float64(passes)*perPass))
		runtime.ReadMemStats(&m1)
	}
	fwdNS := median(reps)
	out["quant.forward_us_per_inf"] = fwdNS / 1e3
	out["quant.allocs_per_inf"] = float64(m1.Mallocs-m0.Mallocs) / (float64(passes) * perPass)
	out["quant.bytes_per_inf"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (float64(passes) * perPass)

	// Op accounting and dot counts from one pass on a fresh engine.
	eng, err = factory(0)
	if err != nil {
		return nil, err
	}
	probe := newProbe(eng, false)
	s = quant.NewBatchScratch()
	rec := qn.OpRecorder()
	s.Ops = rec
	pass(probe, s)
	prof := rec.Snapshot()
	out["quant.exec_ops_per_inf"] = float64(prof.Exec().Total()) / perPass
	out["quant.skipped_frac"] = prof.SkippedFrac()
	out["dot.calls_per_inf"] = float64(probe.calls) / perPass
	out["dot.lanes_per_inf"] = float64(probe.lanes) / perPass

	// Dot time per call: capture one batch's operands, replay them.
	eng, err = factory(0)
	if err != nil {
		return nil, err
	}
	probe = newProbe(eng, true)
	sink += len(qn.ForwardBatch(batches[0], []quant.DotEngine{probe}, quant.NewBatchScratch()))
	if eng, err = factory(0); err != nil {
		return nil, err
	}
	calls := len(probe.off) - 1
	loop := func() {
		for i := 0; i < calls; i++ {
			lo, hi := probe.off[i], probe.off[i+1]
			sink += eng.Dot(probe.div[lo:hi], probe.dkv[lo:hi])
		}
	}
	t0 = time.Now()
	loop()
	loops := max(1, int((budget/3)/max(time.Since(t0), time.Microsecond)))
	reps = reps[:0]
	for r := 0; r < 3; r++ {
		t := time.Now()
		for i := 0; i < loops; i++ {
			loop()
		}
		reps = append(reps, float64(time.Since(t).Nanoseconds())/float64(loops*calls))
	}
	nsPerCall := median(reps)
	dotNS := nsPerCall * out["dot.calls_per_inf"]
	out["dot.ns_per_call"] = nsPerCall
	out["dot.share"] = dotNS / fwdNS
	out["quant.lowering_us_per_inf"] = (fwdNS - dotNS) / 1e3
	return out, nil
}
