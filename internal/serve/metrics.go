package serve

import (
	"net/http"
	"strconv"

	"repro/internal/opcount"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// This file is the Prometheus face of the serving plane: every counter
// /stats already exposes as JSON, re-exported in text exposition format
// (GET /metrics), plus the telemetry plane's per-stage latency
// histograms. Family creation order is fixed — the golden /metrics test
// pins name and label ordering — so collectors always create families
// in the same sequence and only then add samples.

// collectInto folds one model's traffic counters into f from st, the
// same snapshot its /stats section serves, so a scrape's served count
// and latency _count agree. Every sample carries model=<name> first,
// then the sample's own label.
func (s *Server) collectInto(f *telemetry.Families, st Stats, name string) {
	model := telemetry.L("model", name)

	req := f.Family("sconna_serve_requests_total", "counter",
		"Requests by outcome: accepted admissions, rejected backpressure, draining refusals, served results, cancelled callers, expired deadlines.")
	for _, oc := range []struct {
		name string
		n    uint64
	}{
		{"accepted", st.Accepted}, {"rejected", st.Rejected}, {"draining", st.Draining},
		{"served", st.Served}, {"cancelled", st.Cancelled}, {"expired", st.Expired},
	} {
		req.Add(float64(oc.n), model, telemetry.L("outcome", oc.name))
	}
	f.Family("sconna_serve_batches_total", "counter", "Executed micro-batches.").
		Add(float64(st.Batches), model)
	bs := f.Family("sconna_serve_batch_size_total", "counter",
		"Executed micro-batches by how many requests they carried.")
	for i, n := range st.BatchSizes {
		if n > 0 {
			bs.Add(float64(n), model, telemetry.L("size", strconv.Itoa(i+1)))
		}
	}
	f.Family("sconna_serve_queue_depth", "gauge", "Requests waiting in the bounded queue.").
		Add(float64(st.QueueDepth), model)
	f.Family("sconna_serve_queue_capacity", "gauge", "Bounded-queue capacity.").
		Add(float64(st.QueueCap), model)
	f.Family("sconna_serve_engines_busy", "gauge", "Engine-pool slots checked out right now.").
		Add(float64(st.EnginesBusy), model)
	f.Family("sconna_serve_pool_size", "gauge", "Engine-pool size.").
		Add(float64(st.PoolSize), model)
	f.Family("sconna_serve_latency_seconds", "histogram",
		"Submit-to-result latency (log2-microsecond buckets).").
		Histogram(st.lat, model)

	stage := f.Family("sconna_serve_stage_latency_seconds", "histogram",
		"Pipeline-stage latency: decode, admit, queue, assemble, checkout, forward, respond.")
	traces := f.Family("sconna_serve_traces_total", "counter",
		"Request traces recorded by the telemetry plane.")
	if s.tel != nil {
		snaps := s.tel.StageSnapshot()
		for i, stageName := range telemetry.StageNames() {
			stage.Histogram(snaps[i], model, telemetry.L("stage", stageName))
		}
		traces.Add(float64(s.tel.TraceCount()), model)
	}

	if o := st.Ops; o != nil {
		f.Family("sconna_ops_inferences_total", "counter", "Inferences tallied by the op/energy accounting plane.").
			Add(float64(o.Inferences), model)
		ops := f.Family("sconna_ops_total", "counter",
			"Arithmetic and memory-traffic ops by lowering (dense equivalent vs executed) and op class.")
		for _, kc := range []struct {
			kind string
			c    opcount.Counts
		}{{"dense", o.Dense}, {"exec", o.Exec}} {
			for _, opn := range []struct {
				op string
				n  uint64
			}{{"mul", kc.c.Mul}, {"add", kc.c.Add}, {"rd", kc.c.Rd}, {"wr", kc.c.Wr}} {
				ops.Add(float64(opn.n), model, telemetry.L("kind", kc.kind), telemetry.L("op", opn.op))
			}
		}
		f.Family("sconna_ops_skipped_fraction", "gauge", "Fraction of dense ops elided by zero skipping.").
			Add(o.SkippedFrac, model)
		en := f.Family("sconna_energy_uj_per_inference", "gauge",
			"Per-inference energy in microjoules under each power model.")
		en.Add(o.ElectronicDenseUJ, model, telemetry.L("power_model", "electronic_dense"))
		en.Add(o.ElectronicUJ, model, telemetry.L("power_model", "electronic"))
		en.Add(o.SconnaUJ, model, telemetry.L("power_model", "sconna"))
	}
}

// collectInto folds the whole registry into f: registry-level gauges,
// then every model's server counters labeled model=<name> (sorted, so
// sample order is stable), then the resilience plane — breaker and
// admission-quota families. Every value comes from one RegistryStats
// snapshot, the document GET /stats serves.
func (r *Registry) collectInto(f *telemetry.Families) {
	v := r.view()
	st := r.statsOf(v)

	f.Family("sconna_registry_models", "gauge", "Registered, traffic-visible models.").
		Add(float64(len(st.Models)))
	f.Family("sconna_registry_max_in_flight", "gauge", "Registry-wide in-flight budget (0 = unlimited).").
		Add(float64(v.budget))
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	f.Family("sconna_registry_draining", "gauge", "1 once DrainAll has begun.").Add(draining)

	for i, m := range v.models {
		m.srv.collectInto(f, st.Models[i].Stats, m.name)
	}

	brState := f.Family("sconna_breaker_state", "gauge",
		"Circuit-breaker state: 0 closed, 1 half-open, 2 open.")
	brTrips := f.Family("sconna_breaker_trips_total", "counter", "Circuit-breaker trips.")
	brRej := f.Family("sconna_breaker_rejected_total", "counter", "Requests shed by an open breaker.")
	qInFlight := f.Family("sconna_quota_in_flight", "gauge", "Requests inside the model's admission quota.")
	qLimit := f.Family("sconna_quota_limit", "gauge", "Admission-quota limit (0 = unlimited).")
	qRej := f.Family("sconna_quota_rejected_total", "counter", "Requests shed by the admission quota.")
	for _, mi := range st.Models {
		lab := telemetry.L("model", mi.Name)
		if bs := mi.Breaker; bs != nil {
			state := 0.0
			switch bs.State {
			case resilience.HalfOpen.String():
				state = 1
			case resilience.Open.String():
				state = 2
			}
			brState.Add(state, lab)
			brTrips.Add(float64(bs.Trips), lab)
			brRej.Add(float64(bs.Rejected), lab)
		}
		qInFlight.Add(float64(mi.InFlight), lab)
		qLimit.Add(float64(mi.QuotaLimit), lab)
		qRej.Add(float64(mi.QuotaRejected), lab)
	}
}

// handleTraces merges every model's trace ring into one Chrome trace
// document (one process row per model, sorted by name).
func (r *Registry) handleTraces(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	models := r.view().models
	planes := make([]*telemetry.Plane, len(models))
	for i, m := range models {
		planes[i] = m.srv.Telemetry()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = telemetry.WriteChromeTrace(w, planes...)
}
