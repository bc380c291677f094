package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// testShape is the smoke input shape: small enough that -race runs stay
// fast, padded convolutions still exercise truncated windows.
var testShape = []int{1, 8, 8}

// testNet builds the smoke quantized network once: serving semantics do
// not depend on trained weights, so a seeded random-init network keeps
// the suite fast while the logits stay deterministic.
var testNetFixture struct {
	once sync.Once
	qn   *quant.Network
}

func testNet(t testing.TB) *quant.Network {
	t.Helper()
	testNetFixture.once.Do(func() {
		net := nn.BuildSmallCNN(2, 4, 21)
		calib := []nn.Example{{X: testInputs(1, 22)[0], Label: 0}}
		qn, err := quant.Quantize(net, 6, calib)
		if err != nil {
			panic(err)
		}
		testNetFixture.qn = qn
	})
	return testNetFixture.qn
}

// testInputs draws n positive-valued smoke inputs.
func testInputs(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(testShape...)
		for j := range x.Data {
			x.Data[j] = float32(math.Abs(rng.NormFloat64()))
		}
		xs[i] = x
	}
	return xs
}

// testCoreConfig is the smoke functional operating point (6-bit streams
// keep a forward pass light).
func testCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Bits = 6
	cfg.N = 16
	cfg.M = 1
	cfg.ADCSeed = 99
	return cfg
}

func exactOpts(mut func(*Options)) Options {
	o := Options{InputShape: testShape, PoolSize: 2, MaxBatch: 4}
	if mut != nil {
		mut(&o)
	}
	return o
}

func newTestServer(t *testing.T, factory quant.EngineFactory, opts Options) *Server {
	t.Helper()
	s, err := New(testNet(t), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

func TestSubmitMatchesDirectForward(t *testing.T) {
	qn := testNet(t)
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(func(o *Options) {
		o.ClassNames = []string{"a", "b", "c", "d"}
	}))
	for i, x := range testInputs(6, 23) {
		res, err := s.Submit(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		want := qn.Forward(x, quant.ExactEngine{})
		if res.Class != want.ArgMax() {
			t.Fatalf("input %d: class %d, want %d", i, res.Class, want.ArgMax())
		}
		if res.ClassName != []string{"a", "b", "c", "d"}[res.Class] {
			t.Fatalf("input %d: class name %q", i, res.ClassName)
		}
		for j := range want.Data {
			if res.Logits[j] != want.Data[j] {
				t.Fatalf("input %d logit %d: %v != %v", i, j, res.Logits[j], want.Data[j])
			}
		}
	}
}

func TestSubmitBatchOrderAndSeqs(t *testing.T) {
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	qn := testNet(t)
	xs := testInputs(7, 29)
	results, err := s.SubmitBatch(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(xs) {
		t.Fatalf("%d results for %d inputs", len(results), len(xs))
	}
	for i, res := range results {
		if res.Seq != uint64(i) {
			t.Fatalf("result %d has seq %d: batch admission must be atomic and ordered", i, res.Seq)
		}
		if want := qn.Forward(xs[i], quant.ExactEngine{}).ArgMax(); res.Class != want {
			t.Fatalf("result %d: class %d want %d", i, res.Class, want)
		}
	}
}

func TestSubmitValidatesInput(t *testing.T) {
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	if _, err := s.Submit(context.Background(), tensor.New(1, 4, 4)); err == nil {
		t.Fatal("wrong-shape input accepted")
	}
	// Right element count, wrong rank: must be rejected at admission —
	// inside a worker it would panic the whole server.
	flat := tensor.New(testShape[0] * testShape[1] * testShape[2])
	if _, err := s.Submit(context.Background(), flat); err == nil {
		t.Fatal("wrong-rank input accepted")
	}
	if _, err := s.Submit(context.Background(), nil); err == nil {
		t.Fatal("nil input accepted")
	}
	// Non-finite values: Go's float→int conversion of them is
	// platform-dependent, so they must never reach quantization.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := testInputs(1, 31)[0]
		x.Data[5] = float32(bad)
		if _, err := s.Submit(context.Background(), x); err == nil {
			t.Fatalf("input with %v accepted", bad)
		}
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("invalid inputs were admitted: %+v", st)
	}
}

// gatedEngine blocks every Dot until released, letting tests hold a
// batch in flight deterministically.
type gatedEngine struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedEngine() *gatedEngine {
	return &gatedEngine{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedEngine) Dot(div, dkv []int) int {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return 1
}

func (g *gatedEngine) Name() string { return "gated" }

// With the one engine wedged mid-batch, admissions must fill the bounded
// pipeline and then fail fast with ErrOverloaded — never queue without
// bound, never block the submitter.
func TestBackpressureRejectsWhenFull(t *testing.T) {
	g := newGatedEngine()
	s := newTestServer(t, quant.SharedEngine(g), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 1, QueueDepth: 2,
	})
	x := testInputs(1, 31)[0]
	first, err := s.enqueue(context.Background(), []*tensor.T{x})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started // the worker is now wedged inside the batch

	var accepted []*request
	sawReject := false
	for i := 0; i < 20 && !sawReject; i++ {
		reqs, err := s.enqueue(context.Background(), []*tensor.T{x})
		switch {
		case err == nil:
			accepted = append(accepted, reqs...)
		case errors.Is(err, ErrOverloaded):
			sawReject = true
		default:
			t.Fatal(err)
		}
	}
	if !sawReject {
		t.Fatal("queue never pushed back: unbounded buffering")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}

	close(g.release)
	for _, r := range append(first, accepted...) {
		if o := <-r.done; o.err != nil {
			t.Fatalf("accepted request failed: %v", o.err)
		}
	}
}

// Requests whose context ends while queued are skipped by the batch
// runner and resolved with the context error, without poisoning the
// rest of their batch.
func TestContextCancellationMidBatch(t *testing.T) {
	g := newGatedEngine()
	s := newTestServer(t, quant.SharedEngine(g), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 8, QueueDepth: 16,
	})
	xs := testInputs(4, 37)
	blocker, err := s.enqueue(context.Background(), xs[:1])
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := s.enqueue(ctx, xs[1:3])
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := s.enqueue(context.Background(), xs[3:])
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(g.release)

	if o := <-blocker[0].done; o.err != nil {
		t.Fatalf("blocker failed: %v", o.err)
	}
	for i, r := range doomed {
		if o := <-r.done; !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancelled request %d resolved with %v", i, o.err)
		}
	}
	if o := <-survivor[0].done; o.err != nil {
		t.Fatalf("survivor sharing the batch failed: %v", o.err)
	}
	if got := s.Stats().Cancelled; got != 2 {
		t.Fatalf("Cancelled = %d, want 2", got)
	}
}

func TestDrainFinishesBacklogThenRefuses(t *testing.T) {
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	xs := testInputs(9, 41)
	reqs, err := s.enqueue(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		select {
		case o := <-r.done:
			if o.err != nil {
				t.Fatalf("backlog request %d failed: %v", i, o.err)
			}
		default:
			t.Fatalf("backlog request %d unresolved after drain", i)
		}
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := s.Submit(context.Background(), xs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit: %v, want ErrDraining", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if st := s.Stats(); st.Served != uint64(len(xs)) {
		t.Fatalf("Served = %d, want %d", st.Served, len(xs))
	}
}

// The replay contract: in deterministic mode every response is a pure
// function of (network, input, arrival seq) — the same recorded trace
// served through any pool size and any batching yields bit-identical
// results, equal to the serial reference of one fresh factory(seq)
// engine per request.
func TestDeterministicReplayBitIdentical(t *testing.T) {
	qn := testNet(t)
	factory := quant.SconnaEngineFactory(testCoreConfig())
	trace := testInputs(12, 43)

	// Naive reference, straight through the compute plane.
	want := make([]*tensor.T, len(trace))
	for i, x := range trace {
		eng, err := factory(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = qn.ForwardNaive(x, eng)
	}

	configs := []Options{
		{InputShape: testShape, Deterministic: true, PoolSize: 1, MaxBatch: 1, QueueDepth: 64},
		{InputShape: testShape, Deterministic: true, PoolSize: 3, MaxBatch: 8, MaxWait: 2 * time.Millisecond, QueueDepth: 64},
	}
	for ci, opts := range configs {
		s := newTestServer(t, factory, opts)
		var results []Result
		// Mixed submission shapes: singles and batches still assign
		// consecutive seqs in trace order.
		one, err := s.Submit(context.Background(), trace[0])
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, one)
		chunk, err := s.SubmitBatch(context.Background(), trace[1:7])
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, chunk...)
		chunk, err = s.SubmitBatch(context.Background(), trace[7:])
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, chunk...)

		for i, res := range results {
			if res.Seq != uint64(i) {
				t.Fatalf("config %d: trace index %d got seq %d", ci, i, res.Seq)
			}
			if res.Engine != i {
				t.Fatalf("config %d: trace index %d reports engine %d — responses must not leak pool scheduling", ci, i, res.Engine)
			}
			for j := range want[i].Data {
				if res.Logits[j] != want[i].Data[j] {
					t.Fatalf("config %d: trace index %d logit %d: %v != %v (replay must be bit-identical)",
						ci, i, j, res.Logits[j], want[i].Data[j])
				}
			}
		}
	}
}

// Throughput mode trades replay stability for speed; the trade must be
// visible: a pooled stateful engine serves whole batches, so results are
// still valid classifications but the reported engine is a pool slot.
func TestThroughputModeServesFromPool(t *testing.T) {
	factory := quant.SconnaEngineFactory(testCoreConfig())
	s := newTestServer(t, factory, Options{InputShape: testShape, PoolSize: 2, MaxBatch: 4})
	results, err := s.SubmitBatch(context.Background(), testInputs(6, 47))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Engine < 0 || res.Engine >= 2 {
			t.Fatalf("result %d: engine %d outside pool", i, res.Engine)
		}
	}
	st := s.Stats()
	if st.Batches == 0 || st.Served != 6 {
		t.Fatalf("stats: %+v", st)
	}
	sum := uint64(0)
	for sz, n := range st.BatchSizes {
		sum += uint64(sz+1) * n
	}
	if sum != st.Served {
		t.Fatalf("batch-size histogram accounts for %d requests, served %d", sum, st.Served)
	}
}

// Concurrent submitters under -race: the batcher, pool and stats must
// hold up, and every accepted request must resolve exactly once.
func TestConcurrentSubmitRace(t *testing.T) {
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), Options{
		InputShape: testShape, PoolSize: 2, MaxBatch: 8, QueueDepth: 64,
	})
	xs := testInputs(4, 53)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if _, err := s.Submit(context.Background(), xs[(i+k)%len(xs)]); err != nil && !errors.Is(err, ErrOverloaded) {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Served != st.Accepted || st.Served == 0 {
		t.Fatalf("every accepted request must resolve: %+v", st)
	}
}
