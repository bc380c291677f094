package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// postSingle posts one JSON single-input classify request and returns
// the response (body closed) plus its decoded error text, if any.
func postSingle(t *testing.T, client *http.Client, url string, x *tensor.T) *http.Response {
	t.Helper()
	body, err := json.Marshal(classifyRequest{Input: x.Data})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// The chaos soak: a registry model served in deterministic mode behind
// a circuit breaker, with engine-level fault injection. Every request
// terminates with a definite status, the breaker trips (healthz
// degrades while the registry keeps answering, /metrics reports the
// open breaker and pprof still answers), the fault-phase status
// sequence replays identically on a fresh registry at the same seed,
// the breaker recovers through half-open probes once the faults stop,
// and the drained process leaks no goroutines.
func TestChaosSoakBreakerTripAndRecover(t *testing.T) {
	startGoroutines := runtime.NumGoroutine()

	inner := quant.SharedEngine(quant.ExactEngine{})
	x := testInputs(1, 61)[0]
	client := &http.Client{}

	// trip serves a fresh breaker-guarded model under seeded engine chaos
	// and posts sequentially until the breaker opens. It returns the
	// registry, its listener, the switch that stops the faults, and the
	// status of every POST — a pure function of the seed.
	trip := func() (*Registry, *http.Server, string, *atomic.Bool, []int) {
		chaotic := resilience.ChaosEngineFactory(inner, resilience.ChaosOptions{Seed: 7, ErrRate: 0.9, SkipSeqs: 2})
		faulting := new(atomic.Bool) // two-phase soak: faults on, then recovery
		faulting.Store(true)
		factory := func(shard int) (quant.DotEngine, error) {
			if faulting.Load() {
				return chaotic(shard)
			}
			return inner(shard)
		}
		reg := NewRegistry()
		_, err := reg.Register("m", testNet(t), factory, Options{
			InputShape: testShape, PoolSize: 2, MaxBatch: 4, QueueDepth: 64, Deterministic: true,
			Breaker: &resilience.BreakerOptions{
				// The cooldown outlasts the mid-soak scrape, so the breaker
				// is still open (not half-open) when /metrics reads it.
				Window: 8, FailureThreshold: 0.5, MinSamples: 4,
				Cooldown: 250 * time.Millisecond, HalfOpenProbes: 2,
			},
			Telemetry: &telemetry.Options{},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs, base, err := ListenLocal(reg.Handler())
		if err != nil {
			t.Fatal(err)
		}
		var seq []int
		deadline := time.Now().Add(10 * time.Second)
		for reg.Health() != "degraded" {
			if time.Now().After(deadline) {
				t.Fatalf("breaker never tripped; status codes so far: %v", seq)
			}
			seq = append(seq, postSingle(t, client, base+"/v1/models/m/classify", x).StatusCode)
		}
		return reg, hs, base, faulting, seq
	}

	// Phase 1: faults flow until the breaker opens.
	reg, hs, base, faulting, seq := trip()
	codes := map[int]int{}
	for _, code := range seq {
		codes[code]++
	}
	if codes[http.StatusInternalServerError] == 0 {
		t.Fatal("degraded without any injected 500")
	}

	// Observability under fire, breaker open: a second listener with
	// pprof mounted serves a valid exposition showing the tripped breaker
	// and the stage histograms, and a heap profile. Scrapes are GETs on
	// another socket: they consume no seqs.
	obs, obsBase, err := ListenLocal(telemetry.WithPprof(reg.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	doc := scrapeMetrics(t, obsBase)
	for _, want := range []string{
		`sconna_breaker_state{model="m"} 2`, // open
		"sconna_serve_stage_latency_seconds_bucket",
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("metrics while tripped missing %q in:\n%.2000s", want, doc)
		}
	}
	heap, err := client.Get(obsBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := io.ReadAll(heap.Body)
	heap.Body.Close()
	if err != nil || heap.StatusCode != http.StatusOK || !bytes.Contains(profile, []byte("heap profile")) {
		t.Fatalf("pprof heap while tripped: %d %v %.80s", heap.StatusCode, err, profile)
	}
	obs.Close()

	// An open breaker sheds with 503 + Retry-After, and healthz stays a
	// 200 "degraded" — the box is still serving its other models.
	resp := postSingle(t, client, base+"/v1/models/m/classify", x)
	codes[resp.StatusCode]++
	if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker 503 without Retry-After")
	}
	hresp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health["status"] != "degraded" {
		t.Fatalf("healthz while tripped: %d %v, want 200 degraded", hresp.StatusCode, health)
	}

	// The fault phase replays: a fresh registry at the same seed answers
	// the same POSTs with the same status sequence.
	replayReg, replayHS, _, _, again := trip()
	if fmt.Sprint(again) != fmt.Sprint(seq) {
		t.Fatalf("fault phase not replayable:\n%v\nvs\n%v", seq, again)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := replayReg.DrainAll(ctx); err != nil {
		t.Fatal(err)
	}
	replayHS.Close()

	// Phase 2: faults stop; the cooldown elapses, half-open probes
	// succeed, the breaker closes and health returns to ok.
	faulting.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Health() != "ok" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered; status codes: %v", codes)
		}
		codes[postSingle(t, client, base+"/v1/models/m/classify", x).StatusCode]++
		time.Sleep(time.Millisecond)
	}
	st := reg.Stats()
	if st.Health != "ok" || len(st.Models) != 1 {
		t.Fatalf("registry stats after recovery: %+v", st)
	}
	mb := st.Models[0].Breaker
	if mb == nil || mb.State != "closed" || mb.Trips == 0 {
		t.Fatalf("breaker stats after recovery: %+v", mb)
	}

	// Every POST terminated with a definite status.
	total := 0
	for _, n := range codes {
		total += n
	}
	if total == 0 || codes[http.StatusOK] == 0 {
		t.Fatalf("soak accounting: %v", codes)
	}

	// Drain everything; the goroutine count settles back.
	if err := reg.DrainAll(ctx); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	client.CloseIdleConnections()
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= startGoroutines+3 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines: %d at start, %d after drain", startGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Chaos runs replay: the same seed realizes the same faults at the
// same arrival seqs with bit-identical results (including the
// corrupted ones), a different seed realizes a different run, and
// non-faulted requests match the fault-free reference exactly.
func TestChaosReplayByteIdentical(t *testing.T) {
	qn := testNet(t)
	base := quant.SconnaEngineFactory(testCoreConfig())
	trace := testInputs(24, 67)
	// SkipSeqs covers the largest pool the test builds (3), so the same
	// schedule drives every pool size.
	chaos := resilience.ChaosOptions{Seed: 11, ErrRate: 0.25, WrongRate: 0.25, SlowRate: 0.1, SlowDelay: 50 * time.Microsecond, SkipSeqs: 3}

	run := func(o resilience.ChaosOptions, poolSize int) ([]string, []bool) {
		s := newTestServer(t, resilience.ChaosEngineFactory(base, o), Options{
			InputShape: testShape, Deterministic: true, PoolSize: poolSize, MaxBatch: 4, QueueDepth: 64,
		})
		sigs := make([]string, len(trace))
		failed := make([]bool, len(trace))
		for i, x := range trace {
			res, err := s.Submit(context.Background(), x)
			if err != nil {
				failed[i] = true
				sigs[i] = "err"
				continue
			}
			sigs[i] = fmt.Sprintf("%x", res.Logits)
		}
		return sigs, failed
	}

	sigsA, failedA := run(chaos, 1)
	sigsB, failedB := run(chaos, 3)
	for i := range sigsA {
		if sigsA[i] != sigsB[i] {
			t.Fatalf("seq %d: chaos run not replayable across pool sizes: %q vs %q", i, sigsA[i], sigsB[i])
		}
		if want := chaos.FaultFor(uint64(i)) == resilience.FaultErr; failedA[i] != want {
			t.Fatalf("seq %d: failed=%v, schedule says %v", i, failedA[i], want)
		}
		_ = failedB
	}

	// Non-faulted seqs are bit-identical to the fault-free reference:
	// chaos perturbs only what the schedule says it perturbs.
	for i, x := range trace {
		if chaos.FaultFor(uint64(i)) == resilience.FaultErr || chaos.FaultFor(uint64(i)) == resilience.FaultWrong {
			continue
		}
		eng, err := base(i)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%x", qn.ForwardNaive(x, eng).Data)
		if sigsA[i] != want {
			t.Fatalf("seq %d (fault %v): chaos run diverged from fault-free reference", i, chaos.FaultFor(uint64(i)))
		}
	}

	sigsC, _ := run(resilience.ChaosOptions{Seed: 12, ErrRate: 0.25, WrongRate: 0.25, SlowRate: 0.1, SlowDelay: 50 * time.Microsecond, SkipSeqs: 3}, 1)
	diff := 0
	for i := range sigsA {
		if sigsA[i] != sigsC[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("two chaos seeds realized identical runs")
	}
}

// blockEngine wedges its worker on the first Dot until released; used
// to hold every pool worker busy so cancellations land mid-flight.
type blockEngine struct {
	started chan<- int
	release <-chan struct{}
	seq     int
	once    sync.Once
}

func (b *blockEngine) Dot(div, dkv []int) int {
	b.once.Do(func() { b.started <- b.seq })
	<-b.release
	return 1
}

func (b *blockEngine) Name() string { return "block" }

// Cancellation at every pool size, both pre-dispatch (context already
// ended at enqueue) and mid-flight (cancelled while every worker is
// wedged in an earlier batch): doomed requests resolve with their
// context error before any engine is claimed for them, and the
// survivors' results are bit-identical to the per-seq fault-free
// reference — a cancellation never perturbs its batch-mates.
func TestCancellationPoolSizesBitIdentical(t *testing.T) {
	qn := testNet(t)
	base := quant.SconnaEngineFactory(testCoreConfig())
	trace := testInputs(12, 71)
	doomed := map[int]bool{2: true, 5: true, 9: true}

	for _, poolSize := range []int{1, 2, 4} {
		started := make(chan int, poolSize)
		release := make(chan struct{})
		factory := func(shard int) (quant.DotEngine, error) {
			if shard < poolSize {
				return &blockEngine{started: started, release: release, seq: shard}, nil
			}
			return base(shard)
		}
		s := newTestServer(t, factory, Options{
			InputShape: testShape, Deterministic: true, PoolSize: poolSize, MaxBatch: 4, QueueDepth: 64,
		})

		// Wedge every worker: each blocker is admitted alone and waited
		// for, so it occupies its own batch and its own worker.
		blockX := testInputs(1, 73)[0]
		var blockers []*request
		for i := 0; i < poolSize; i++ {
			reqs, err := s.enqueue(context.Background(), []*tensor.T{blockX})
			if err != nil {
				t.Fatal(err)
			}
			blockers = append(blockers, reqs...)
			<-started
		}

		// The trace arrives while all workers are busy. Doomed requests
		// carry an already-cancelled context (pre-dispatch cancellation);
		// midCancel is cancelled after enqueue, while its batch cannot
		// have run yet (mid-flight).
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		midCtx, midCancel := context.WithCancel(context.Background())
		var reqs []*request
		for i := range trace {
			ctx := context.Background()
			switch {
			case doomed[i]:
				ctx = cancelled
			case i == 7:
				ctx = midCtx
			}
			rs, err := s.enqueue(ctx, trace[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, rs...)
		}
		midCancel()
		close(release)

		for _, b := range blockers {
			<-b.done
		}
		for i, r := range reqs {
			o := <-r.done
			if doomed[i] || i == 7 {
				if !errors.Is(o.err, context.Canceled) {
					t.Fatalf("pool %d: doomed seq %d resolved with %v", poolSize, i, o.err)
				}
				continue
			}
			if o.err != nil {
				t.Fatalf("pool %d: survivor seq %d failed: %v", poolSize, i, o.err)
			}
			seq := poolSize + i // blockers claimed seqs [0, poolSize)
			if o.res.Seq != uint64(seq) {
				t.Fatalf("pool %d: survivor %d has seq %d, want %d", poolSize, i, o.res.Seq, seq)
			}
			eng, err := base(seq)
			if err != nil {
				t.Fatal(err)
			}
			want := qn.ForwardNaive(trace[i], eng)
			for j := range want.Data {
				if o.res.Logits[j] != want.Data[j] {
					t.Fatalf("pool %d: survivor seq %d logit %d: %v != %v (must be bit-identical)",
						poolSize, seq, j, o.res.Logits[j], want.Data[j])
				}
			}
		}
		if got := s.Stats().Cancelled; got != uint64(len(doomed))+1 {
			t.Fatalf("pool %d: Cancelled = %d, want %d", poolSize, got, len(doomed)+1)
		}
	}
}

// The server-imposed deadline: a queued request that outlives
// Options.DefaultTimeout resolves with ErrDeadline (HTTP 504), counted
// separately from caller cancellations, while a caller-supplied
// deadline still wins and surfaces as the caller's own context error.
func TestDefaultTimeoutDeadline(t *testing.T) {
	g := newGatedEngine()
	s := newTestServer(t, quant.SharedEngine(g), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 1, QueueDepth: 8,
		DefaultTimeout: 30 * time.Millisecond,
	})
	x := testInputs(1, 79)[0]
	blocker, err := s.enqueue(context.Background(), []*tensor.T{x})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	// No caller deadline: the server's applies.
	if _, err := s.Submit(context.Background(), x); !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued past DefaultTimeout: %v, want ErrDeadline", err)
	}
	// A caller deadline wins over the server's.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err = s.Submit(ctx, x)
	cancel()
	if errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline: %v, want context.DeadlineExceeded", err)
	}

	// The HTTP layer maps the server-imposed deadline to 504.
	hs, base, err := ListenLocal(s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	resp := postSingle(t, &http.Client{}, base+"/v1/classify", x)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired HTTP request: %d, want 504", resp.StatusCode)
	}

	close(g.release)
	<-blocker[0].done
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatal(err)
	}
	// The expired requests were dropped pre-dispatch and counted as
	// such; only the blocker actually ran.
	st := s.Stats()
	if st.Expired == 0 {
		t.Fatalf("no expired requests counted: %+v", st)
	}
	if st.Served != 1 {
		t.Fatalf("Served = %d, want 1 (expired work must not reach an engine)", st.Served)
	}
}

// The 429 contract: Retry-After is a whole-second integer derived from
// backlog over observed drain rate, clamped to [1, 30].
func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
	g := newGatedEngine()
	s := newTestServer(t, quant.SharedEngine(g), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 1, QueueDepth: 2,
	})
	// With no drain observed the estimate is the legacy 1s.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold retryAfterSeconds = %d, want 1", got)
	}
	// Seed the window directly: 2 served/s against an empty queue is a
	// 1s wait; 0.1/s means a 10s estimate; 0.01/s clamps at 30.
	s.rateMu.Lock()
	s.ratePrev = 2
	s.rateStart = time.Now()
	s.rateServed = 0
	s.rateMu.Unlock()
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("fast drain: %d, want 1", got)
	}
	s.rateMu.Lock()
	s.ratePrev = 0.1
	s.rateMu.Unlock()
	if got := s.retryAfterSeconds(); got != 10 {
		t.Fatalf("slow drain: %d, want ceil(1/0.1) = 10", got)
	}
	s.rateMu.Lock()
	s.ratePrev = 0.01
	s.rateMu.Unlock()
	if got := s.retryAfterSeconds(); got != 30 {
		t.Fatalf("crawling drain: %d, want the 30s clamp", got)
	}
	s.rateMu.Lock()
	s.ratePrev = 0
	s.rateMu.Unlock()

	// End to end: wedge the worker and keep posting with a short client
	// timeout. Admitted posts time out client-side and stay queued
	// (consuming pipeline capacity), so within a few rounds the queue is
	// genuinely full and a 429 with a parseable Retry-After comes back.
	x := testInputs(1, 83)[0]
	blocker, err := s.enqueue(context.Background(), []*tensor.T{x})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	hs, base, err := ListenLocal(s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	client := &http.Client{Timeout: 100 * time.Millisecond}
	body, err := json.Marshal(classifyRequest{Input: x.Data})
	if err != nil {
		t.Fatal(err)
	}
	var saw429 bool
	for i := 0; i < 50 && !saw429; i++ {
		resp, err := client.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			continue // admitted and wedged: the client timeout fired
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 || secs > 30 {
				t.Fatalf("429 Retry-After %q: err=%v", resp.Header.Get("Retry-After"), err)
			}
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("full queue never returned 429")
	}
	close(g.release)
	<-blocker[0].done
}

// Drain and DrainAll are idempotent and safe to race: any number of
// concurrent drains all succeed, the backlog resolves exactly once,
// and admissions after the first drain fail with the drain error.
func TestConcurrentDrainIdempotent(t *testing.T) {
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	xs := testInputs(8, 89)
	reqs, err := s.enqueue(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Drain(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Drain %d: %v", i, err)
		}
	}
	for i, r := range reqs {
		select {
		case o := <-r.done:
			if o.err != nil {
				t.Fatalf("backlog %d failed: %v", i, o.err)
			}
		default:
			t.Fatalf("backlog %d unresolved after drain", i)
		}
	}

	// The registry variant: concurrent DrainAll racing an Unregister.
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Register(name, testNet(t), quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil)); err != nil {
			t.Fatal(err)
		}
	}
	var rwg sync.WaitGroup
	rerrs := make([]error, 4)
	for i := range rerrs {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			rerrs[i] = reg.DrainAll(ctx)
		}(i)
	}
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		_ = reg.Unregister(ctx, "a") // may 404 if DrainAll won; both fine
	}()
	rwg.Wait()
	for i, err := range rerrs {
		if err != nil {
			t.Fatalf("concurrent DrainAll %d: %v", i, err)
		}
	}
	if !reg.Draining() || reg.Len() != 0 {
		t.Fatalf("registry after DrainAll: draining=%v len=%d", reg.Draining(), reg.Len())
	}
}

// Weighted admission quotas: the registry budget splits by weight,
// rebalances as models come and go, and a model at its limit sheds
// with 429 + Retry-After while other models keep serving.
func TestRegistryWeightedQuota(t *testing.T) {
	g := newGatedEngine()
	reg := NewRegistry()
	if _, err := reg.Register("hot", testNet(t), quant.SharedEngine(g), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 1, QueueDepth: 8, AdmissionWeight: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("cold", testNet(t), quant.SharedEngine(quant.ExactEngine{}), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 4, QueueDepth: 8, AdmissionWeight: 1,
	}); err != nil {
		t.Fatal(err)
	}
	reg.SetMaxInFlight(4) // hot: 4*3/4 = 3, cold: 4*1/4 = 1
	limits := map[string]int{}
	for _, m := range reg.Stats().Models {
		limits[m.Name] = m.QuotaLimit
	}
	if limits["hot"] != 3 || limits["cold"] != 1 {
		t.Fatalf("quota limits %v, want hot=3 cold=1", limits)
	}

	hs, base, err := ListenLocal(reg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	x := testInputs(1, 97)[0]

	// Saturate hot's 3 slots: each POST wedges inside the gated engine.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postSingle(t, &http.Client{}, base+"/v1/models/hot/classify", x)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight := 0
		for _, m := range reg.Stats().Models {
			if m.Name == "hot" {
				inflight = m.InFlight
			}
		}
		if inflight == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hot model never reached its in-flight limit")
		}
		time.Sleep(time.Millisecond)
	}
	resp := postSingle(t, &http.Client{}, base+"/v1/models/hot/classify", x)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-quota POST: %d (Retry-After %q), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// The lighter model is unaffected: weighted shares isolate it.
	if resp := postSingle(t, &http.Client{}, base+"/v1/models/cold/classify", x); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold model during hot saturation: %d, want 200", resp.StatusCode)
	}
	close(g.release)
	wg.Wait()

	// Unregister rebalances: hot alone now owns the whole budget.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Unregister(ctx, "cold"); err != nil {
		t.Fatal(err)
	}
	for _, m := range reg.Stats().Models {
		if m.Name == "hot" && m.QuotaLimit != 4 {
			t.Fatalf("hot limit after rebalance = %d, want 4", m.QuotaLimit)
		}
	}
	// SetMaxInFlight(0) lifts the quotas entirely.
	reg.SetMaxInFlight(0)
	for _, m := range reg.Stats().Models {
		if m.QuotaLimit != 0 {
			t.Fatalf("limit %d after unlimited, want 0", m.QuotaLimit)
		}
	}
	if err := reg.DrainAll(ctx); err != nil {
		t.Fatal(err)
	}
}

// resilience.RetryClient recovers every budgeted chaos fault: clients
// retrying against an HTTP-chaos-wrapped server see only 200s, and the
// client counts the retries it spent.
func TestRetryClientRecoversBudgetedChaos(t *testing.T) {
	s := newTestServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(func(o *Options) {
		o.QueueDepth = 64
	}))
	h := resilience.Middleware(s.Handler(), resilience.HTTPChaosOptions{
		Seed: 5, ErrorRate: 0.3, FaultBudget: 16,
	})
	hs, base, err := ListenLocal(h)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	rc := &resilience.RetryClient{
		HTTP: &http.Client{},
		// Retries are re-arrivals with independent fault draws, so the
		// attempt budget must outlast a plausible streak of injected 500s.
		Opts: resilience.RetryOptions{MaxAttempts: 8, Seed: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
	body := jsonSingleBody(t, testInputs(1, 101)[0].Data)
	codes, _ := closedLoop(64, 2, func() (*http.Response, error) {
		return rc.Post(base+"/v1/classify", "application/json", body)
	})
	if codes[http.StatusOK] != 64 {
		t.Fatalf("retrying clients: status counts %v (every injected fault must be recovered)", codes)
	}
	if rc.Retries() == 0 {
		t.Fatal("no retries recorded against a 30% fault rate")
	}
}
