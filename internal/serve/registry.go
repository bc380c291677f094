package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/quant"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// DefaultModelName is the name a single served model registers under:
// a one-entry registry serves it on /v1/models/default/classify and on
// the /v1/classify alias.
const DefaultModelName = "default"

// ErrUnknownModel reports a routing miss: no model is registered under
// the requested name (HTTP 404).
var ErrUnknownModel = errors.New("serve: unknown model")

// ErrRegistryClosed reports a registry that has begun DrainAll and no
// longer accepts registrations or traffic (HTTP 503).
var ErrRegistryClosed = errors.New("serve: registry draining")

// Model is one registry entry: a named, versioned quantized model and
// the private serving stack (engine pool, micro-batcher, stats) that
// fronts it. Versions are content-addressed — the digest of the
// quantized network — so two registries serving the same artifact
// report the same version, and a weight change is a version change.
type Model struct {
	name    string
	version string
	srv     *Server

	// breaker is the model's circuit breaker (nil when Options.Breaker
	// was nil). quota bounds the model's in-flight requests to its
	// weight share of the registry budget (limit 0 = unlimited); weight
	// is the share.
	breaker *resilience.Breaker
	quota   resilience.Quota
	weight  int
}

// Name returns the model's registered name (the routing key).
func (m *Model) Name() string { return m.name }

// Version returns the model's content-addressed version ID: the full
// hex digest of the quantized network (quant.(*Network).Digest).
func (m *Model) Version() string { return m.version }

// Server returns the model's private serving stack. Submit/SubmitBatch
// on it are the Go-level classify API for this model; its seq counter,
// engine pool and stats are independent of every other model's, which
// is what makes the deterministic-replay contract hold per model.
func (m *Model) Server() *Server { return m.srv }

// Breaker returns the model's circuit breaker, or nil when the model
// was registered without one (Options.Breaker nil).
func (m *Model) Breaker() *resilience.Breaker { return m.breaker }

// Registry is the multi-model serving plane: named, versioned quantized
// models, each behind its own engine pool and micro-batcher, routed by
// name over one HTTP surface. Register and Unregister are safe under
// live traffic — lookups take a read lock, an unregistered model drains
// gracefully (its queued work finishes) while the rest keep serving.
type Registry struct {
	mu      sync.RWMutex
	models  map[string]*Model
	defName string // first registered, unless SetDefault moved it
	closed  bool
	// maxInFlight is the registry-wide in-flight budget split across
	// models by Options.AdmissionWeight (0 = unlimited, the default).
	maxInFlight int
}

// NewRegistry returns an empty registry; models arrive via Register.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Model)}
}

// validModelName bounds the routing namespace: path-safe, non-empty,
// and short enough to log. The name is a URL path segment, so anything
// that would need escaping is rejected at registration, not at request
// time.
func validModelName(name string) error {
	if name == "" {
		return errors.New("serve: empty model name")
	}
	if len(name) > 128 {
		return fmt.Errorf("serve: model name %q longer than 128 bytes", name[:32]+"...")
	}
	if name == "." || name == ".." {
		// ServeMux path-cleans these out of /v1/models/{name}/classify,
		// so the model would be registered yet unreachable by its route.
		return fmt.Errorf("serve: model name %q is not routable", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: model name %q contains %q (allowed: letters, digits, - _ .)", name, r)
		}
	}
	return nil
}

// Register builds a Server over qn and adds it under name. The first
// model registered becomes the default — the one the legacy
// /v1/classify alias routes to. The version is the content
// digest of qn. Registering a name that is already present fails:
// replacing a live model is an Unregister (drain) then a Register, so
// in-flight traffic is never silently re-routed mid-request.
func (r *Registry) Register(name string, qn *quant.Network, factory quant.EngineFactory, opts Options) (*Model, error) {
	if err := validModelName(name); err != nil {
		return nil, err
	}
	if qn == nil {
		return nil, errors.New("serve: nil network")
	}
	version := qn.Digest().String()

	// Reserve the name before building the server: a duplicate must not
	// cost an engine-pool build, and two concurrent Registers of one
	// name must not both win.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRegistryClosed
	}
	if _, dup := r.models[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	placeholder := &Model{name: name, version: version, weight: opts.AdmissionWeight}
	if placeholder.weight <= 0 {
		placeholder.weight = 1
	}
	if opts.Breaker != nil {
		placeholder.breaker = resilience.NewBreaker(*opts.Breaker)
	}
	r.models[name] = placeholder
	if r.defName == "" {
		r.defName = name
	}
	r.mu.Unlock()

	if opts.Telemetry != nil && opts.Telemetry.Name == "" {
		// Trace events and metric planes carry the model name; copy the
		// options so the caller's value stays untouched.
		t := *opts.Telemetry
		t.Name = name
		opts.Telemetry = &t
	}
	srv, err := newServer(qn, factory, opts)
	if err != nil {
		r.mu.Lock()
		if r.models[name] == placeholder {
			delete(r.models, name)
		}
		if r.defName == name {
			r.defName = ""
		}
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Lock()
	// The reservation may have been revoked while the server was
	// building (a concurrent DrainAll or Unregister): the fresh server
	// must not leak — it has never seen traffic, so draining it is
	// immediate — and the caller must learn the registration did not
	// take.
	if r.closed || r.models[name] != placeholder {
		closed := r.closed
		r.mu.Unlock()
		_ = srv.Drain(context.Background())
		if closed {
			return nil, ErrRegistryClosed
		}
		return nil, fmt.Errorf("serve: model %q unregistered during registration", name)
	}
	placeholder.srv = srv
	r.rebalanceLocked()
	r.mu.Unlock()
	return placeholder, nil
}

// SetMaxInFlight installs (or, with 0, removes) the registry-wide
// in-flight request budget. The budget is split across the registered
// models by their Options.AdmissionWeight — limit_i = max(1,
// budget·w_i/Σw) — so a hot model saturating its share gets 429s while
// lighter models keep their engine time. Safe under live traffic, and
// re-applied automatically as models register and unregister.
func (r *Registry) SetMaxInFlight(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 {
		n = 0
	}
	r.maxInFlight = n
	r.rebalanceLocked()
}

// rebalanceLocked recomputes every model's quota limit from the
// registry budget and the models' weights. Callers hold r.mu.
func (r *Registry) rebalanceLocked() {
	if r.maxInFlight <= 0 {
		for _, m := range r.models {
			m.quota.SetLimit(0)
		}
		return
	}
	total := 0
	for _, m := range r.models {
		total += m.weight
	}
	if total == 0 {
		return
	}
	for _, m := range r.models {
		limit := r.maxInFlight * m.weight / total
		if limit < 1 {
			limit = 1
		}
		m.quota.SetLimit(limit)
	}
}

// Unregister removes the named model from routing and drains its
// server: requests already admitted finish, new lookups 404. The rest
// of the registry serves uninterrupted throughout. ctx bounds the
// drain.
func (r *Registry) Unregister(ctx context.Context, name string) error {
	r.mu.Lock()
	m, ok := r.models[name]
	if ok {
		delete(r.models, name)
	}
	// Removing the default clears defName: the legacy alias 404s
	// immediately (never silently re-routes to an already-registered
	// different model), while a later Register — or SetDefault — can
	// claim the default slot again.
	if ok && r.defName == name {
		r.defName = ""
	}
	if ok {
		r.rebalanceLocked()
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if m.srv == nil {
		// The model is mid-Register: revoking the reservation is enough —
		// Register sees it gone, drains the server it just built and
		// reports the registration lost.
		return nil
	}
	return m.srv.Drain(ctx)
}

// Get returns the named model, or ErrUnknownModel. A model mid-Register
// (name reserved, server still building) is not yet visible to traffic.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	if !ok || m.srv == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}

// Default returns the model the /v1/classify alias routes to.
func (r *Registry) Default() (*Model, error) {
	r.mu.RLock()
	name := r.defName
	r.mu.RUnlock()
	if name == "" {
		return nil, fmt.Errorf("%w: no default model", ErrUnknownModel)
	}
	return r.Get(name)
}

// SetDefault redirects the legacy alias to the named model.
func (r *Registry) SetDefault(name string) error {
	if _, err := r.Get(name); err != nil {
		return err
	}
	r.mu.Lock()
	r.defName = name
	r.mu.Unlock()
	return nil
}

// registryView is one read of the registry under its lock: the
// traffic-visible models (a model mid-Register is not yet one) sorted
// by name, and the registry fields read alongside them.
type registryView struct {
	models  []*Model
	defName string
	closed  bool
	budget  int
}

func (r *Registry) view() registryView {
	r.mu.RLock()
	v := registryView{defName: r.defName, closed: r.closed, budget: r.maxInFlight}
	for _, m := range r.models {
		if m.srv != nil {
			v.models = append(v.models, m)
		}
	}
	r.mu.RUnlock()
	sort.Slice(v.models, func(i, j int) bool { return v.models[i].name < v.models[j].name })
	return v
}

// Names returns the registered model names in sorted order.
func (r *Registry) Names() []string {
	models := r.view().models
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.name
	}
	return names
}

// Len returns the number of registered (traffic-visible) models.
func (r *Registry) Len() int { return len(r.Names()) }

// ModelInfo is one entry of the GET /v1/models listing (and the
// per-model section of the registry's /stats document).
type ModelInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Digest is the content digest of the model's quantized network —
	// the same value Version carries (versions are content-addressed),
	// exported explicitly so fleet auditing can diff replicas and match
	// registry entries against artifact-store listings without knowing
	// the versioning convention.
	Digest string `json:"digest"`
	// Default marks the model the legacy /v1/classify alias routes to.
	Default bool `json:"default,omitempty"`
	// Stats is the model's private traffic snapshot.
	Stats Stats `json:"stats"`
	// Breaker is the model's circuit-breaker snapshot (absent when the
	// model runs without one); InFlight/QuotaLimit/QuotaRejected describe
	// the admission quota (QuotaLimit 0 = unlimited).
	Breaker       *resilience.BreakerStats `json:"breaker,omitempty"`
	InFlight      int                      `json:"in_flight,omitempty"`
	QuotaLimit    int                      `json:"quota_limit,omitempty"`
	QuotaRejected uint64                   `json:"quota_rejected,omitempty"`
}

// RegistryStats is the registry-wide stats document: one section per
// model, sorted by name.
type RegistryStats struct {
	// DefaultModel names the legacy-alias target ("" once it has been
	// unregistered).
	DefaultModel string      `json:"default_model"`
	Models       []ModelInfo `json:"models"`
	Draining     bool        `json:"draining"`
	// Health mirrors GET /healthz: "ok", "degraded" (some breaker open
	// or probing) or "draining".
	Health string `json:"health"`
}

// Stats snapshots every registered model's traffic counters.
func (r *Registry) Stats() RegistryStats { return r.statsOf(r.view()) }

// statsOf snapshots the models of one view; /stats and /metrics both
// render from its result.
func (r *Registry) statsOf(v registryView) RegistryStats {
	defName := v.defName
	out := RegistryStats{DefaultModel: defName, Draining: v.closed, Health: r.Health(), Models: make([]ModelInfo, len(v.models))}
	seen := false
	for i, m := range v.models {
		out.Models[i] = ModelInfo{
			Name: m.name, Version: m.version, Digest: m.version,
			Default: m.name == defName, Stats: m.srv.Stats(),
			InFlight: m.quota.InFlight(), QuotaLimit: m.quota.Limit(), QuotaRejected: m.quota.Rejected(),
		}
		if m.breaker != nil {
			bs := m.breaker.Stats()
			out.Models[i].Breaker = &bs
		}
		seen = seen || m.name == defName
	}
	if !seen {
		out.DefaultModel = ""
	}
	return out
}

// DrainAll stops the whole registry: registrations and admissions end,
// every model's backlog finishes (bounded by ctx), then the models are
// removed. Idempotent; per-model drain errors aggregate in name order.
func (r *Registry) DrainAll(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	models := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.models = make(map[string]*Model)
	r.mu.Unlock()
	sort.Slice(models, func(i, j int) bool { return models[i].name < models[j].name })
	var errs []error
	for _, m := range models {
		if m.srv == nil {
			continue
		}
		if err := m.srv.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("model %q: %w", m.name, err))
		}
	}
	return errors.Join(errs...)
}

// Draining reports whether DrainAll has begun.
func (r *Registry) Draining() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// Handler returns the serving plane's HTTP surface — the only one; a
// single model is served as a one-entry registry:
//
//	POST /v1/models/{name}/classify — classify against the named model
//	GET  /v1/models/{name}/stats    — that model's Stats snapshot
//	GET  /v1/models, GET /stats     — RegistryStats (name/version/stats
//	                                  listing, health, draining)
//	POST /v1/classify               — alias for the default model
//	                                  (byte-identical to its routed path)
//	GET  /healthz                   — liveness (503 once draining)
//	GET  /metrics                   — Prometheus text exposition, every
//	                                  model's counters labeled model=<name>
//	                                  plus breaker/quota/registry families
//	GET  /debug/traces              — all models' recent traces merged
//	                                  into one Chrome trace document
//
// Unknown model names are 404s with a JSON error body; every other
// status contract (400/413/429/503/504/499) is the model server's,
// because routing hands the request body untouched to that model's
// handler.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	// Method checks live inside the handlers (not in mux patterns) so
	// wrong-method errors carry the same JSON bodies on every route.
	mux.HandleFunc("/v1/models/{name}/classify", r.handleModelClassify)
	mux.HandleFunc("/v1/models/{name}/stats", r.handleModelStats)
	mux.HandleFunc("/v1/models", r.handleStats)
	mux.HandleFunc("/v1/classify", r.handleDefaultClassify)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/stats", r.handleStats)
	mux.Handle("/metrics", telemetry.MetricsHandler(r.collectInto))
	mux.HandleFunc("/debug/traces", r.handleTraces)
	return mux
}

func (r *Registry) handleModelClassify(w http.ResponseWriter, req *http.Request) {
	m, err := r.Get(req.PathValue("name"))
	r.classify(w, req, m, err)
}

// handleDefaultClassify is the /v1/classify alias: requests route to
// the default model untouched, so responses are byte-identical to its
// /v1/models/{name}/classify route (pinned by the registry alias test).
func (r *Registry) handleDefaultClassify(w http.ResponseWriter, req *http.Request) {
	m, err := r.Default()
	r.classify(w, req, m, err)
}

// classify answers a classify request for the resolved model m: 503
// once the registry drains, 404 when resolution failed (err), and
// otherwise the model's handler behind its gates.
func (r *Registry) classify(w http.ResponseWriter, req *http.Request, m *Model, err error) {
	if r.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrRegistryClosed.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	r.serveModel(m, w, req)
}

// serveModel runs the model's classify handler behind the resilience
// gates: quota admission first (cheap, and every acquire pairs with a
// guaranteed Release), then the circuit breaker. The ordering matters —
// a breaker Allow must pair with exactly one Record, so a quota 429
// issued after Allow would leak a half-open probe slot. Without a
// breaker the response writer is never wrapped.
func (r *Registry) serveModel(m *Model, w http.ResponseWriter, req *http.Request) {
	if !m.quota.TryAcquire() {
		w.Header().Set("Retry-After", strconv.Itoa(m.srv.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("serve: model %q over its admission quota", m.name))
		return
	}
	defer m.quota.Release()
	if m.breaker == nil {
		m.srv.handleClassify(w, req)
		return
	}
	allowed, retryAfter := m.breaker.Allow()
	if !allowed {
		secs := int(retryAfter / time.Second)
		if retryAfter%time.Second != 0 || secs < 1 {
			secs++ // round up: retrying a hair early hits the open breaker again
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("serve: model %q circuit open", m.name))
		return
	}
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	m.srv.handleClassify(rec, req)
	// 5xx — engine failures, injected faults, server-imposed deadlines —
	// counts against the breaker; a 429 is load shedding working as
	// designed, not a model fault, and records as success.
	m.breaker.Record(rec.code < 500)
}

// statusRecorder captures the status a handler wrote so the breaker can
// classify the outcome. Only installed when a breaker is enabled.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (r *Registry) handleModelStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Stats stay readable while draining: the snapshot is how an
	// operator watches a drain finish.
	m, err := r.Get(req.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m.srv.Stats())
}

// Health reports the registry's aggregate condition: "draining" once
// DrainAll began, "degraded" while any model's circuit breaker is open
// or half-open, "ok" otherwise.
func (r *Registry) Health() string {
	if r.Draining() {
		return "draining"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.models {
		if m.breaker != nil && m.breaker.State() != resilience.Closed {
			return "degraded"
		}
	}
	return "ok"
}

// handleHealthz reports degraded-mode health: "ok" and "degraded" are
// both 200 — a degraded registry is still serving (the open breaker
// sheds only its own model) and must not be pulled from rotation —
// while "draining" is the load-balancer-visible 503.
func (r *Registry) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := r.Health()
	code := http.StatusOK
	if h == "draining" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": h})
}

// handleStats serves the RegistryStats document on /stats and
// /v1/models.
func (r *Registry) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, r.Stats())
}
