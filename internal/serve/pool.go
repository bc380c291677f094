package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/quant"
)

// Engine is one pooled inference unit: a factory-built DotEngine paired
// with the batch scratch that serves it. Engines compute pure functions
// of their operands, but both halves hold scratch (the SC engine's
// weight packs and converter row state, the scratch's gather buffers),
// so the pair moves through the pool as a unit and is owned by exactly
// one goroutine between Get and Put — which is what keeps the serving
// plane -race clean.
type Engine struct {
	// ID is the engine's pool slot: engine i is factory(i).
	ID int
	// Dot is the dot-product substrate.
	Dot quant.DotEngine
	// Scratch is the engine-private batched-inference scratch.
	Scratch *quant.BatchScratch
}

// Pool owns a fixed set of engines checked out per micro-batch. It is a
// plain counting resource: Get blocks until an engine is free (or the
// context ends), Put returns it. Utilization is observable through
// InUse, which the /stats endpoint exposes.
type Pool struct {
	free chan *Engine
	size int
	busy atomic.Int64
}

// NewPool builds n engines through factory (engine i from factory(i))
// and returns the filled pool.
func NewPool(n int, factory quant.EngineFactory) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: pool size %d < 1", n)
	}
	p := &Pool{free: make(chan *Engine, n), size: n}
	for i := 0; i < n; i++ {
		eng, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("serve: building pool engine %d: %w", i, err)
		}
		p.free <- &Engine{ID: i, Dot: eng, Scratch: quant.NewBatchScratch()}
	}
	return p, nil
}

// Get checks an engine out, blocking until one is free or ctx ends.
func (p *Pool) Get(ctx context.Context) (*Engine, error) {
	select {
	case e := <-p.free:
		p.busy.Add(1)
		return e, nil
	default:
	}
	select {
	case e := <-p.free:
		p.busy.Add(1)
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Put returns a checked-out engine. Returning an engine twice (or one
// the pool never issued) is a programming error and panics rather than
// silently growing the pool.
func (p *Pool) Put(e *Engine) {
	if e == nil {
		panic("serve: Put(nil)")
	}
	p.busy.Add(-1)
	select {
	case p.free <- e:
	default:
		panic("serve: engine returned to a full pool")
	}
}

// Size returns the pool's engine count.
func (p *Pool) Size() int { return p.size }

// InUse returns how many engines are currently checked out.
func (p *Pool) InUse() int { return int(p.busy.Load()) }
