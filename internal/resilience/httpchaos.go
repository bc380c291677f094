// Package resilience is the robustness plane of the serving stack:
// seeded HTTP fault injection, a retrying HTTP client, circuit breakers
// and admission quotas. It sits below internal/serve (which wires
// breakers and quotas into the model registry) and beside HTTP clients
// (which use the retry policy), and it owes its shape to the same
// contract every other plane in this tree honors: determinism first.
//
// Fault injection is seeded, not random. Every chaos decision — does
// HTTP request i get a 500 or a stall — is a pure function of (seed,
// index) through the splitmix64 finalizer (digest.Mix64). Two chaos
// runs at the same seed realize the identical fault schedule, so a
// failure a soak run surfaces is replayable, and a test can compute the
// schedule up front. Faults live at the HTTP edge only: engines are
// built once per pool slot and compute pure functions, so no fault can
// make a response's bytes depend on which slot served it.
//
// The circuit breaker is a per-model three-state machine (closed →
// open → half-open) over a rolling outcome window: it trips when the
// failure fraction crosses a threshold, sheds load for a cooldown
// (callers get 503 + Retry-After), then admits a bounded number of
// probes whose outcomes decide between closing and re-opening. The
// admission quota is the registry-level fairness primitive: a bounded
// in-flight count per model, sized by weight when models share a box.
package resilience

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/digest"
)

// fault is one chaos-schedule outcome for a request index.
type fault int

const (
	faultNone  fault = iota
	faultErr         // answer with a flagged 500
	faultStall       // delay, then forward
)

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// ChaosHeader marks chaos-injected HTTP failures, so clients, soak
// harnesses and log scrapers can separate injected 5xx from real ones.
const ChaosHeader = "X-Chaos-Injected"

// HTTPChaosOptions seeds a request-level fault schedule for the
// Middleware. The schedule is keyed by the middleware's own arrival
// index (an atomic counter), so the set of faulted indices is a pure
// function of (Seed, rates) — under concurrent clients the mapping of
// indices to wire requests follows arrival order, which is what a
// recorded serial trace replays exactly.
type HTTPChaosOptions struct {
	// Seed keys the schedule; the same seed always realizes the same
	// schedule.
	Seed uint64
	// ErrorRate is the fraction of requests answered with an injected
	// 500 (body flagged, ChaosHeader set) before reaching the handler.
	ErrorRate float64
	// StallRate is the fraction of requests delayed by Stall before
	// being forwarded — injected tail latency, not failure.
	StallRate float64
	// Stall is the injected delay (<= 0 selects 20ms).
	Stall time.Duration
	// FaultBudget bounds how many faults (errors + stalls) the
	// middleware injects in total; 0 means unbounded. A bounded budget
	// turns a chaos run into a two-phase soak — faults early, clean
	// traffic after — so a breaker can be driven through trip, cooldown
	// and half-open recovery deterministically.
	FaultBudget uint64
}

// faultFor returns the scheduled fault for request index idx: a pure
// function of (Seed, idx). The rates partition the unit interval in the
// order error, stall.
func (o HTTPChaosOptions) faultFor(idx uint64) fault {
	u := unit(digest.Mix64(o.Seed ^ digest.Mix64(idx^0x5e1f)))
	switch {
	case u < o.ErrorRate:
		return faultErr
	case u < o.ErrorRate+o.StallRate:
		return faultStall
	}
	return faultNone
}

func (o HTTPChaosOptions) stall() time.Duration {
	if o.Stall <= 0 {
		return 20 * time.Millisecond
	}
	return o.Stall
}

// Middleware wraps an HTTP handler with the seeded request-fault
// schedule: scheduled requests are answered 500 (flagged with
// ChaosHeader) or stalled, everything else passes through untouched.
// With zero rates the handler is returned as-is — the chaos plane
// costs nothing when disabled.
func Middleware(h http.Handler, o HTTPChaosOptions) http.Handler {
	if o.ErrorRate <= 0 && o.StallRate <= 0 {
		return h
	}
	var idx, spent atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := idx.Add(1) - 1
		f := o.faultFor(i)
		if f != faultNone && o.FaultBudget > 0 && spent.Add(1) > o.FaultBudget {
			f = faultNone
		}
		switch f {
		case faultErr:
			w.Header().Set(ChaosHeader, "error")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": "resilience: injected HTTP fault",
			})
			return
		case faultStall:
			w.Header().Set(ChaosHeader, "stall")
			time.Sleep(o.stall())
		}
		h.ServeHTTP(w, r)
	})
}
