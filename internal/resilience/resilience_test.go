package resilience

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The HTTP chaos schedule is a pure function of (seed, index): two
// walks agree exactly, a different seed realizes a different schedule,
// and the configured rates are realized to within sampling error.
func TestChaosScheduleDeterministicAndSeeded(t *testing.T) {
	o := HTTPChaosOptions{Seed: 42, ErrorRate: 0.1, StallRate: 0.1}
	counts := map[fault]int{}
	for idx := uint64(0); idx < 4096; idx++ {
		f := o.faultFor(idx)
		if again := o.faultFor(idx); again != f {
			t.Fatalf("index %d: schedule not stable: %v then %v", idx, f, again)
		}
		counts[f]++
	}
	for _, f := range []fault{faultErr, faultStall} {
		got := float64(counts[f]) / 4096
		if got < 0.05 || got > 0.15 {
			t.Fatalf("fault %v realized at rate %.3f, want ~0.1", f, got)
		}
	}
	diff := 0
	other := HTTPChaosOptions{Seed: 43, ErrorRate: 0.1, StallRate: 0.1}
	for idx := uint64(0); idx < 4096; idx++ {
		if o.faultFor(idx) != other.faultFor(idx) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("two seeds realized the identical schedule")
	}
}

// The HTTP middleware injects flagged 500s at the configured rate and
// stops once the fault budget is spent.
func TestHTTPMiddlewareBudget(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	h := Middleware(inner, HTTPChaosOptions{Seed: 3, ErrorRate: 0.5, FaultBudget: 5})
	hs := httptest.NewServer(h)
	defer hs.Close()
	injected := 0
	for i := 0; i < 100; i++ {
		resp, err := http.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusInternalServerError {
			if resp.Header.Get(ChaosHeader) == "" {
				t.Fatal("injected 500 not flagged")
			}
			injected++
		}
	}
	if injected != 5 {
		t.Fatalf("budget 5 realized %d injected faults", injected)
	}
	// Zero rates return the handler untouched.
	if got := Middleware(inner, HTTPChaosOptions{}); got == nil {
		t.Fatal("nil middleware")
	}
}

// The breaker trips at the failure threshold, sheds during cooldown
// with a Retry-After, admits bounded half-open probes, re-opens on a
// probe failure and closes after enough successes.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerOptions{
		Window: 8, FailureThreshold: 0.5, MinSamples: 4,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})
	b.now = func() time.Time { return now }

	record := func(success bool) {
		ok, _ := b.Allow()
		if !ok {
			t.Fatalf("closed breaker refused (state %v)", b.State())
		}
		b.Record(success)
	}
	record(true)
	record(true)
	record(false)
	if b.State() != Closed {
		t.Fatalf("tripped below MinSamples: %v", b.State())
	}
	record(false) // 2 failures / 4 samples = threshold
	if b.State() != Open {
		t.Fatalf("state %v, want open at threshold", b.State())
	}
	ok, retryAfter := b.Allow()
	if ok || retryAfter <= 0 || retryAfter > time.Second {
		t.Fatalf("open breaker: ok=%v retryAfter=%v", ok, retryAfter)
	}

	// Cooldown elapses: bounded probes flow.
	now = now.Add(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state %v, want half-open after cooldown", b.State())
	}
	ok1, _ := b.Allow()
	ok2, _ := b.Allow()
	ok3, _ := b.Allow()
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("half-open probe gating: %v %v %v, want true true false", ok1, ok2, ok3)
	}
	// A probe failure re-opens.
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state %v, want open after failed probe", b.State())
	}
	if st := b.Stats(); st.Trips != 2 {
		t.Fatalf("trips = %d, want 2", st.Trips)
	}
	// The outstanding pre-reopen probe settles harmlessly.
	b.Record(true)

	// Second recovery: both probes succeed, the breaker closes.
	now = now.Add(2 * time.Second)
	for i := 0; i < 2; i++ {
		ok, _ := b.Allow()
		if !ok {
			t.Fatalf("probe %d refused", i)
		}
		b.Record(true)
	}
	if b.State() != Closed {
		t.Fatalf("state %v, want closed after probe successes", b.State())
	}
	st := b.Stats()
	if st.State != "closed" || st.Rejected == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// The retry client honors Retry-After, retries transient statuses, and
// hands back the final outcome when the budget runs out.
func TestRetryClient(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer hs.Close()

	c := &RetryClient{Opts: RetryOptions{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	resp, err := c.Post(hs.URL, "application/json", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final status %d after retries", resp.StatusCode)
	}
	if c.Attempts() != 3 || c.Retries() != 2 {
		t.Fatalf("attempts=%d retries=%d, want 3/2", c.Attempts(), c.Retries())
	}

	// Budget exhaustion surfaces the last transient response.
	hits.Store(-100)
	resp, err = c.Post(hs.URL, "application/json", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted budget returned %d, want 429", resp.StatusCode)
	}
}

// The jittered backoff schedule is deterministic per seed.
func TestRetryDelayDeterministic(t *testing.T) {
	o := RetryOptions{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 9}.resolve()
	a, b := &RetryClient{Opts: o}, &RetryClient{Opts: o}
	for k := 0; k < 5; k++ {
		da := a.delay(o, 0, k, "")
		if db := b.delay(o, 0, k, ""); da != db {
			t.Fatalf("attempt %d: delays diverge (%v vs %v)", k, da, db)
		}
		lo := time.Duration(float64(min(o.BaseDelay<<uint(k), o.MaxDelay)) * 0.5)
		hi := min(o.BaseDelay<<uint(k), o.MaxDelay)
		if da < lo || da > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", k, da, lo, hi)
		}
	}
	// Retry-After overrides backoff, capped at MaxDelay.
	if d := a.delay(o, 0, 0, "10"); d != o.MaxDelay {
		t.Fatalf("Retry-After 10s: delay %v, want the %v cap", d, o.MaxDelay)
	}
	if d := a.delay(o, 0, 0, "0"); d != 0 {
		t.Fatalf("Retry-After 0: delay %v, want 0", d)
	}
}

// The quota bounds concurrent admissions exactly, under -race.
func TestQuotaConcurrent(t *testing.T) {
	var q Quota
	q.SetLimit(4)
	var peak, cur atomic.Int64
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !q.TryAcquire() {
					rejected.Add(1)
					continue
				}
				admitted.Add(1)
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				cur.Add(-1)
				q.Release()
			}
		}()
	}
	wg.Wait()
	if peak.Load() > 4 {
		t.Fatalf("quota of 4 admitted %d concurrently", peak.Load())
	}
	if q.InFlight() != 0 {
		t.Fatalf("in-flight %d after all released", q.InFlight())
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted")
	}
	if got := q.Rejected(); got != uint64(rejected.Load()) {
		t.Fatalf("rejected counter %d, observed %d", got, rejected.Load())
	}
	// Limit 0 admits everything.
	q.SetLimit(0)
	for i := 0; i < 10; i++ {
		if !q.TryAcquire() {
			t.Fatal("unlimited quota refused")
		}
	}
}
