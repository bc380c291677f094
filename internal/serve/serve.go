// Package serve is the serving plane of the reproduction: a long-lived,
// micro-batching inference service over the quantized compute plane
// (internal/quant), turning the one-shot Table V evaluation machinery
// into a system that sustains classify traffic.
//
// Three pieces cooperate:
//
//   - An engine Pool owns N factory-built SCONNA engines, each paired
//     with private scratch buffers, checked out per micro-batch — the
//     serving-time form of the engine-per-shard ownership rule that
//     keeps stateful VDPCs single-goroutine.
//
//   - A micro-batcher coalesces individual classify requests from a
//     bounded queue into batches (up to MaxBatch, waiting at most
//     MaxWait), runs them through quant.(*Network).ForwardBatch on a
//     pooled engine, and fans results back to per-request futures. A
//     full queue rejects new work (ErrOverloaded — HTTP 429) instead of
//     buffering unboundedly.
//
//   - An HTTP JSON API (POST /v1/classify, GET /healthz, GET /stats)
//     fronts the batcher, with graceful drain on shutdown.
//
// A Server hosts exactly one quantized network. Multi-model serving —
// the paper-faithful scenario of six CNNs time-sharing one accelerator —
// is the Registry: named, versioned models (version = content digest of
// the quantized network), one private Server per model, routed by name
// (POST /v1/models/{name}/classify) with the legacy /v1/classify kept as
// a byte-compatible alias for the default model, and hot
// Register/Unregister with per-model graceful drain.
//
// Two serving modes trade replay stability against throughput. In the
// default throughput mode every batch runs on one pooled engine, so a
// stateful engine's noise stream depends on how traffic happened to
// batch. Deterministic mode instead derives one fresh engine per request
// from its arrival index (factory(seq)), making every response a pure
// function of (network, input, seq) — bit-identical when a recorded
// trace is replayed, at any pool size and any batching (pinned by the
// replay tests).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/opcount"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ErrOverloaded reports a full request queue: the caller should back off
// and retry (the HTTP layer maps it to 429 with a Retry-After derived
// from the observed drain rate — see the backoff contract on
// writeSubmitError).
var ErrOverloaded = errors.New("serve: request queue full")

// ErrDraining reports a server that has begun graceful shutdown and no
// longer accepts work (HTTP 503).
var ErrDraining = errors.New("serve: draining")

// ErrDeadline reports a request that exceeded the server-imposed
// per-model deadline (Options.DefaultTimeout) before completing. It is
// distinct from the caller's own context.DeadlineExceeded: the HTTP
// layer maps a server-imposed deadline to 504 and a caller-gone
// context to 499.
var ErrDeadline = errors.New("serve: request deadline exceeded")

// Options configures a Server.
type Options struct {
	// MaxBatch bounds how many requests one micro-batch carries
	// (<= 0 selects 32).
	MaxBatch int
	// MaxWait bounds how long the batcher waits for a partial batch to
	// fill once at least one request is pending. 0 never waits: the
	// batcher greedily drains whatever is queued and fires immediately,
	// which under concurrent closed-loop load still forms full batches
	// (arrivals pile up while the previous batch computes) and costs
	// lone requests no added latency.
	MaxWait time.Duration
	// QueueDepth bounds the pending-request queue; admission beyond it
	// fails with ErrOverloaded (<= 0 selects 4*MaxBatch).
	QueueDepth int
	// PoolSize is the engine-pool size (<= 0 selects GOMAXPROCS).
	PoolSize int
	// Deterministic selects replay-stable serving: request seq drives a
	// fresh factory(seq) engine instead of a pooled stream (see the
	// package comment for the trade-off).
	Deterministic bool
	// InputShape is the tensor shape every classify input must carry
	// (nil selects 1x16x16, the procedural dataset's shape).
	InputShape []int
	// ClassNames optionally labels the logits indices in results.
	ClassNames []string
	// OpAccounting attaches an op/energy recorder to the serving hot
	// path: every batch tallies per-layer dense-equivalent and executed
	// op counts (atomic counters shared across the pool), summarized in
	// Stats().Ops. Off by default — when off, the forward paths see a
	// nil recorder and pay one branch per layer, nothing else.
	OpAccounting bool
	// DefaultTimeout is the per-model request deadline: Submit and
	// SubmitBatch callers whose context carries no deadline of its own
	// get one this far out. A request that expires while queued is
	// dropped before any engine is claimed and resolves with
	// ErrDeadline (HTTP 504). 0 disables — requests may wait in the
	// queue indefinitely, the pre-resilience behavior.
	DefaultTimeout time.Duration
	// AdmissionWeight sizes this model's share of a registry-wide
	// in-flight budget when models share a box (see
	// Registry.SetMaxInFlight); <= 0 selects 1. Ignored outside a
	// registry.
	AdmissionWeight int
	// Breaker enables a per-model circuit breaker on the registry's
	// routed HTTP paths: server-side failures (5xx) feed a rolling
	// window, tripping sheds load with 503 + Retry-After, and half-open
	// probes decide recovery. nil disables (the byte-compatible legacy
	// behavior). Ignored outside a registry.
	Breaker *resilience.BreakerOptions
	// Telemetry enables the telemetry plane: every admitted request
	// carries a span (trace ID derived from its arrival seq via
	// splitmix64, so traces replay stably) marked through
	// decode → admit → queue → assemble → checkout → forward → respond,
	// feeding per-stage latency histograms and a bounded ring of recent
	// traces (GET /debug/traces, Chrome trace-event JSON). nil disables
	// — the Nop path: no span allocates, the hot path pays one nil
	// check per stage mark, and replayed traffic stays byte-identical
	// (pinned by the Nop-telemetry replay test). Telemetry never
	// touches results, so byte-identity also holds with it on.
	Telemetry *telemetry.Options
}

// Result is one classify outcome.
type Result struct {
	// Seq is the request's arrival index — in deterministic mode also
	// the seed index of the engine that served it.
	Seq uint64 `json:"seq"`
	// Class is the argmax logit index, named by ClassName when the
	// server was configured with class names.
	Class     int    `json:"class"`
	ClassName string `json:"class_name,omitempty"`
	// Logits holds the raw logits (omitted on the wire unless asked).
	Logits []float32 `json:"logits,omitempty"`
	// Engine identifies the arithmetic stream: the pool slot in
	// throughput mode, the seq-derived engine index in deterministic
	// mode (so responses stay replay-stable at any pool size).
	Engine int `json:"engine"`
}

// request is one queued classify call; done is its future — shared by
// the admission group and buffered for the whole group, so the batch
// runner never blocks on an abandoned caller. idx is the request's
// position within its group (groups may split across micro-batches, so
// outcomes carry it back).
type request struct {
	seq  uint64
	idx  int
	x    *tensor.T
	ctx  context.Context
	enq  time.Time
	done chan outcome
	// sp is the request's telemetry span; nil (free) when the server
	// runs without telemetry.
	sp *telemetry.Span
}

type outcome struct {
	idx int
	res Result
	err error
}

// Server is the micro-batching inference service.
type Server struct {
	qn      *quant.Network
	factory quant.EngineFactory
	opts    Options
	pool    *Pool
	queue   chan *request
	batches chan []*request

	// enqMu serializes admissions so arrival order, seq assignment and
	// queue order agree — the property deterministic replay relies on.
	enqMu   sync.Mutex
	nextSeq uint64

	// mu guards closed: admissions hold it shared, Drain exclusively,
	// so the queue never sees a send after close.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	// ops is the op/energy recorder (nil unless Options.OpAccounting);
	// shared by every pooled engine's scratch — its counters are atomic.
	ops *opcount.Recorder

	// tel is the telemetry plane (nil unless Options.Telemetry — nil is
	// the Nop path every span helper tolerates).
	tel *telemetry.Plane

	accepted  atomic.Uint64
	rejected  atomic.Uint64
	draining  atomic.Uint64
	served    atomic.Uint64
	cancelled atomic.Uint64
	expired   atomic.Uint64
	failed    atomic.Uint64
	nbatches  atomic.Uint64
	batchMu   sync.Mutex
	batchHist []uint64
	lat       telemetry.Histogram

	// Drain-rate window: served-per-second over the recent past, the
	// denominator of the 429 Retry-After estimate (backlog / rate).
	rateMu     sync.Mutex
	rateStart  time.Time
	rateServed uint64
	ratePrev   float64
}

// New builds and starts a Server over the quantized network. factory
// seeds both the engine pool (engine i = factory(i)) and, in
// deterministic mode, the per-request engines (factory(seq)).
func New(qn *quant.Network, factory quant.EngineFactory, opts Options) (*Server, error) {
	if qn == nil {
		return nil, errors.New("serve: nil network")
	}
	if factory == nil {
		return nil, errors.New("serve: nil engine factory")
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 32
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.MaxBatch
	}
	opts.PoolSize = parallel.Workers(opts.PoolSize)
	if opts.InputShape == nil {
		opts.InputShape = []int{1, 16, 16}
	}
	pool, err := NewPool(opts.PoolSize, factory)
	if err != nil {
		return nil, err
	}
	s := &Server{
		qn:        qn,
		factory:   factory,
		opts:      opts,
		pool:      pool,
		queue:     make(chan *request, opts.QueueDepth),
		batches:   make(chan []*request, opts.PoolSize),
		batchHist: make([]uint64, opts.MaxBatch),
		rateStart: time.Now(),
	}
	if opts.OpAccounting {
		s.ops = qn.OpRecorder()
	}
	if opts.Telemetry != nil {
		s.tel = telemetry.New(*opts.Telemetry)
	}
	s.wg.Add(1 + opts.PoolSize)
	go s.dispatch()
	for i := 0; i < opts.PoolSize; i++ {
		go s.runWorker()
	}
	return s, nil
}

// Options returns the server's resolved configuration.
func (s *Server) Options() Options { return s.opts }

// Telemetry returns the server's telemetry plane, or nil when the
// server runs without one (the Nop path).
func (s *Server) Telemetry() *telemetry.Plane { return s.tel }

// inputLen is the flat element count every input must carry.
func (s *Server) inputLen() int {
	n := 1
	for _, d := range s.opts.InputShape {
		n *= d
	}
	return n
}

func (s *Server) checkInput(x *tensor.T) error {
	if x == nil {
		return errors.New("serve: nil input")
	}
	// Validate the full shape, not just the element count: ForwardBatch
	// indexes ranks directly, so a wrong-rank tensor from a Go caller
	// must be rejected at admission, never inside a worker.
	if len(x.Shape) != len(s.opts.InputShape) {
		return fmt.Errorf("serve: input shape %v, want %v", x.Shape, s.opts.InputShape)
	}
	for i, d := range s.opts.InputShape {
		if x.Shape[i] != d {
			return fmt.Errorf("serve: input shape %v, want %v", x.Shape, s.opts.InputShape)
		}
	}
	if x.Len() != s.inputLen() {
		return fmt.Errorf("serve: input has %d elements, want %d (shape %v)",
			x.Len(), s.inputLen(), s.opts.InputShape)
	}
	// NaN and ±Inf would reach activation quantization, where Go's
	// float→int conversion of them is platform-dependent — a silent
	// break of the determinism contract across architectures.
	for i, v := range x.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("serve: input element %d is %v, want a finite value", i, v)
		}
	}
	return nil
}

// enqueue admits a group of inputs atomically: all of them enter the
// queue in consecutive seq order, or none do (ErrOverloaded). ctx is
// attached to each request so the batch runner can skip work whose
// caller has gone away.
func (s *Server) enqueue(ctx context.Context, xs []*tensor.T) ([]*request, error) {
	for _, x := range xs {
		if err := s.checkInput(x); err != nil {
			return nil, err
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.draining.Add(uint64(len(xs)))
		return nil, ErrDraining
	}
	s.enqMu.Lock()
	defer s.enqMu.Unlock()
	if cap(s.queue)-len(s.queue) < len(xs) {
		s.rejected.Add(uint64(len(xs)))
		return nil, ErrOverloaded
	}
	now := time.Now()
	var httpInfo telemetry.HTTPInfo
	if s.tel != nil {
		httpInfo = telemetry.HTTPInfoFrom(ctx)
	}
	done := make(chan outcome, len(xs))
	backing := make([]request, len(xs))
	reqs := make([]*request, len(xs))
	for i, x := range xs {
		r := &backing[i]
		*r = request{seq: s.nextSeq, idx: i, x: x, ctx: ctx, enq: now, done: done}
		if s.tel != nil {
			// The HTTP decode window is shared by the whole admission
			// group; each request's span carries it so per-stage
			// histograms see the cost a caller actually paid.
			r.sp = s.tel.StartSpan(r.seq, now, httpInfo.Decode, httpInfo.ClientID)
		}
		s.nextSeq++
		// Cannot block: capacity was checked under enqMu and only
		// admissions add to the queue.
		s.queue <- r
		reqs[i] = r
	}
	s.accepted.Add(uint64(len(xs)))
	return reqs, nil
}

// withDeadline applies the per-model default timeout to contexts that
// carry no deadline of their own: a caller-supplied deadline always
// wins, and an expiry of the server-imposed one is distinguishable via
// context.Cause (ErrDeadline).
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.DefaultTimeout <= 0 {
		return ctx, func() {}
	}
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, s.opts.DefaultTimeout, ErrDeadline)
}

// ctxErr resolves a finished context to the error the caller should
// see: the server-imposed deadline surfaces as ErrDeadline, everything
// else as the context's own error.
func ctxErr(ctx context.Context) error {
	if cause := context.Cause(ctx); errors.Is(cause, ErrDeadline) {
		return ErrDeadline
	}
	return ctx.Err()
}

// Submit classifies one input, blocking until its micro-batch completes
// or ctx ends. A full queue fails fast with ErrOverloaded; with
// Options.DefaultTimeout set, a deadline-free ctx gains the per-model
// deadline and expiry surfaces as ErrDeadline.
func (s *Server) Submit(ctx context.Context, x *tensor.T) (Result, error) {
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	reqs, err := s.enqueue(ctx, []*tensor.T{x})
	if err != nil {
		return Result{}, err
	}
	select {
	case o := <-reqs[0].done:
		return o.res, o.err
	case <-ctx.Done():
		return Result{}, ctxErr(ctx)
	}
}

// SubmitBatch classifies a group of inputs admitted atomically in
// consecutive arrival order, returning results in input order. The
// per-model default deadline applies to the group as a whole.
func (s *Server) SubmitBatch(ctx context.Context, xs []*tensor.T) ([]Result, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	reqs, err := s.enqueue(ctx, xs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(reqs))
	done := reqs[0].done // shared by the whole admission group
	for range reqs {
		select {
		case o := <-done:
			if o.err != nil {
				return nil, o.err
			}
			out[o.idx] = o.res
		case <-ctx.Done():
			return nil, ctxErr(ctx)
		}
	}
	return out, nil
}

// dispatch coalesces queued requests into micro-batches: take one
// (blocking), greedily drain whatever else is pending, then optionally
// wait up to MaxWait for the batch to fill. Closing the queue (Drain)
// flushes the assembly and stops the workers after the backlog runs dry.
func (s *Server) dispatch() {
	defer s.wg.Done()
	defer close(s.batches)
	for {
		r, ok := <-s.queue
		if !ok {
			return
		}
		r.sp.Mark(telemetry.StageQueue)
		batch := make([]*request, 1, s.opts.MaxBatch)
		batch[0] = r
		closed := false
	greedy:
		for len(batch) < s.opts.MaxBatch {
			select {
			case r2, ok := <-s.queue:
				if !ok {
					closed = true
					break greedy
				}
				r2.sp.Mark(telemetry.StageQueue)
				batch = append(batch, r2)
			default:
				break greedy
			}
		}
		if !closed && len(batch) < s.opts.MaxBatch && s.opts.MaxWait > 0 {
			timer := time.NewTimer(s.opts.MaxWait)
		wait:
			for len(batch) < s.opts.MaxBatch {
				select {
				case r2, ok := <-s.queue:
					if !ok {
						closed = true
						break wait
					}
					r2.sp.Mark(telemetry.StageQueue)
					batch = append(batch, r2)
				case <-timer.C:
					break wait
				}
			}
			timer.Stop()
		}
		s.batches <- batch
		if closed {
			return
		}
	}
}

func (s *Server) runWorker() {
	defer s.wg.Done()
	for batch := range s.batches {
		s.runBatch(batch)
	}
}

// runBatch skips requests whose context already ended (expired or
// cancelled work is dropped before any engine is claimed — it must
// never spend pool time), checks an engine out, runs the survivors
// through one batched forward and resolves their futures. Every
// counter, histogram, trace and the engine slot are settled before a
// request's future resolves, so a caller that holds its answer sees
// itself in /metrics and /stats.
func (s *Server) runBatch(batch []*request) {
	exec := make([]*request, 0, len(batch))
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			err := ctxErr(r.ctx)
			if errors.Is(err, ErrDeadline) {
				s.expired.Add(1)
				r.sp.Finish("expired")
			} else {
				s.cancelled.Add(1)
				r.sp.Finish("cancelled")
			}
			r.done <- outcome{idx: r.idx, err: err}
			continue
		}
		exec = append(exec, r)
	}
	if len(exec) == 0 {
		return
	}

	var engines []quant.DotEngine
	if s.opts.Deterministic {
		// Engines derive per seq; a factory error (a real failure, or a
		// chaos-injected one) fails only its own request. Survivors in
		// the same micro-batch keep exactly their factory(seq) engines,
		// so their results stay bit-identical to a fault-free replay.
		kept := exec[:0]
		engines = make([]quant.DotEngine, 0, len(exec))
		for _, r := range exec {
			e, err := s.factory(int(r.seq))
			if err != nil {
				s.failed.Add(1)
				r.sp.Finish("failed")
				r.done <- outcome{idx: r.idx, err: fmt.Errorf("serve: building engine for seq %d: %w", r.seq, err)}
				continue
			}
			kept = append(kept, r)
			engines = append(engines, e)
		}
		exec = kept
		if len(exec) == 0 {
			return
		}
	}

	if s.tel != nil {
		for _, r := range exec {
			r.sp.Mark(telemetry.StageAssemble)
		}
	}
	eng, err := s.pool.Get(context.Background())
	if err != nil { // unreachable: Background never ends
		panic(err)
	}
	if s.tel != nil {
		for _, r := range exec {
			r.sp.Mark(telemetry.StageCheckout)
		}
	}

	xs := make([]*tensor.T, len(exec))
	for i, r := range exec {
		xs[i] = r.x
	}
	if !s.opts.Deterministic {
		engines = []quant.DotEngine{eng.Dot}
	}

	// A nil recorder keeps accounting zero-cost; a live one is atomic
	// and safe to share across all pooled scratches.
	eng.Scratch.Ops = s.ops
	outs := s.qn.ForwardBatch(xs, engines, eng.Scratch)
	engineID := eng.ID
	s.pool.Put(eng)
	if s.tel != nil {
		for _, r := range exec {
			r.sp.Mark(telemetry.StageForward)
		}
	}
	if s.ops != nil {
		s.ops.AddInferences(uint64(len(exec)))
	}
	now := time.Now()
	results := make([]outcome, len(exec))
	for i, r := range exec {
		logits := outs[i]
		res := Result{
			Seq:    r.seq,
			Class:  logits.ArgMax(),
			Logits: logits.Data,
			Engine: engineID,
		}
		if s.opts.Deterministic {
			// The pool slot is a scheduling artifact; the seq-derived
			// engine is the arithmetic identity replay must preserve.
			res.Engine = int(r.seq)
		}
		if res.Class < len(s.opts.ClassNames) {
			res.ClassName = s.opts.ClassNames[res.Class]
		}
		results[i] = outcome{idx: r.idx, res: res}
		s.lat.Observe(now.Sub(r.enq))
		r.sp.Mark(telemetry.StageRespond)
		r.sp.Finish("ok")
	}
	s.served.Add(uint64(len(exec)))
	s.noteServed(len(exec))
	s.nbatches.Add(1)
	s.batchMu.Lock()
	s.batchHist[len(exec)-1]++
	s.batchMu.Unlock()
	for i, r := range exec {
		r.done <- results[i]
	}
}

// rateWindow is how often the drain-rate window rolls over; long
// enough to smooth batch granularity, short enough to track a shifting
// load.
const rateWindow = 5 * time.Second

// noteServed advances the drain-rate window.
func (s *Server) noteServed(n int) {
	now := time.Now()
	s.rateMu.Lock()
	s.rateServed += uint64(n)
	if el := now.Sub(s.rateStart); el >= rateWindow {
		s.ratePrev = float64(s.rateServed) / el.Seconds()
		s.rateServed = 0
		s.rateStart = now
	}
	s.rateMu.Unlock()
}

// retryAfterSeconds estimates how long an overloaded caller should
// back off: the current queue backlog divided by the observed drain
// rate (served per second over the recent window), clamped to [1, 30]
// whole seconds — the value the 429 path sends as Retry-After. With no
// drain observed yet it answers 1s, the legacy constant.
func (s *Server) retryAfterSeconds() int {
	s.rateMu.Lock()
	rate := s.ratePrev
	if el := time.Since(s.rateStart).Seconds(); el > 0.05 {
		if cur := float64(s.rateServed) / el; cur > rate {
			rate = cur
		}
	}
	s.rateMu.Unlock()
	if rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(len(s.queue)+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Drain stops admissions, waits for the queued backlog to finish (or ctx
// to end) and stops the batcher and workers. It is idempotent; Submit
// during or after a drain fails with ErrDraining.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Stats snapshots the traffic counters.
func (s *Server) Stats() Stats {
	s.batchMu.Lock()
	hist := append([]uint64(nil), s.batchHist...)
	s.batchMu.Unlock()
	var ops *OpStats
	if s.ops != nil {
		ops = summarizeOps(s.ops.Snapshot())
	}
	snap := s.lat.Snapshot()
	return Stats{
		Ops:            ops,
		Accepted:       s.accepted.Load(),
		Rejected:       s.rejected.Load(),
		Draining:       s.draining.Load(),
		Served:         s.served.Load(),
		Cancelled:      s.cancelled.Load(),
		Expired:        s.expired.Load(),
		Failed:         s.failed.Load(),
		Batches:        s.nbatches.Load(),
		BatchSizes:     hist,
		QueueDepth:     len(s.queue),
		QueueCap:       cap(s.queue),
		EnginesBusy:    s.pool.InUse(),
		PoolSize:       s.pool.Size(),
		LatencyP50:     snap.Quantile(0.50),
		LatencyP90:     snap.Quantile(0.90),
		LatencyP99:     snap.Quantile(0.99),
		LatencyP999:    snap.Quantile(0.999),
		LatencyBuckets: latencyBuckets(snap),
		Deterministic:  s.opts.Deterministic,
	}
}
