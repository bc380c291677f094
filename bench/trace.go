package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one bench-recorded span: a timed call into a layer's public
// HTTP entry point, keyed by the POST's trace ID.
type span struct {
	id         string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer records spans around the handlers of the layers it wraps. The
// spans stay in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans map[string]map[string]span // layer -> trace ID -> span
}

func newTracer() *tracer { return &tracer{spans: make(map[string]map[string]span)} }

// wrap times every request h serves that carries a trace ID.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := r.Header.Get(telemetry.TraceIDHeader)
		if id == "" {
			return
		}
		t.mu.Lock()
		if t.spans[layer] == nil {
			t.spans[layer] = make(map[string]span)
		}
		t.spans[layer][id] = span{id: id, start: start, end: end}
		t.mu.Unlock()
	})
}

// take returns the spans recorded so far and starts afresh.
func (t *tracer) take() map[string]map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = make(map[string]map[string]span)
	return out
}

// postTrace is one POST followed through every layer: the client's root
// span, the router handler (routed workloads only), the replica handler
// and the telemetry plane's per-input stage spans, joined on the trace
// ID the client stamped.
type postTrace struct {
	idx     int
	id      string
	client  span
	router  *span
	handler span
	stages  []telemetry.SpanRecord
}

// traceResult is the traced run's per-layer view.
type traceResult struct {
	layer      map[string]float64
	throughput float64 // inferences/s over the traced window
	p50        float64 // ms
	joined     []postTrace
}

// traceKeep bounds how many joined POSTs the Chrome trace holds.
const traceKeep = 64

// tracedRun boots a separate stack with the telemetry plane on and the
// handlers wrapped, warms it, then drives the workload for measure with
// every POST stamped, and reduces what the layers recorded to per-layer
// self times.
func tracedRun(w *workload, fx *fixture, seed int64, warm, measure time.Duration) (*traceResult, error) {
	tr := newTracer()
	st, _, err := boot(w, fx.paths, fx.inputs[0], true, tr.wrap)
	if err != nil {
		return nil, err
	}
	defer st.close()
	warmPlan, err := newLoadPlan(w, fx, seed, st.url, 0, warm)
	if err != nil {
		return nil, err
	}
	warmPlan.stamp = true
	warmPlan.run(time.Now())

	before := st.snapshot(w)
	tr.take()
	plan := *warmPlan
	plan.measure = measure
	res := plan.run(time.Now())
	after := st.snapshot(w)
	spans := tr.take()

	out := &traceResult{layer: make(map[string]float64)}
	wd := res.measured(0, measure)
	out.throughput = wd.throughput
	out.p50 = wd.p50

	for i, name := range telemetry.StageNames() {
		out.layer["serve."+name+"_us"] = after.stageMeanUS(before, i)
	}
	out.layer["serve.batch_mean"] = after.batchMean(before)
	out.layer["fleet.reroutes"] = float64(after.reroutes - before.reroutes)
	out.layer["fleet.proxy_errors"] = float64(after.proxyErrors - before.proxyErrors)

	// Group the plane's stage spans by the POST that carried them.
	groups := make(map[string][]telemetry.SpanRecord)
	for _, name := range w.Models {
		m, err := st.reg.Get(name)
		if err != nil {
			return nil, err
		}
		for _, rec := range m.Server().Telemetry().Traces() {
			groups[rec.ClientID] = append(groups[rec.ClientID], rec)
		}
	}
	var handlerUS, selfUS, replyUS []float64
	for _, rec := range res.recs {
		id := telemetry.TraceID(uint64(rec.idx))
		h, ok := spans["serve"][id]
		if !ok {
			continue
		}
		handlerUS = append(handlerUS, us(h.dur()))
		pt := postTrace{idx: rec.idx, id: id, handler: h,
			client: span{id: id, start: res.origin.Add(rec.send), end: res.origin.Add(rec.end)}}
		if w.Routed {
			r, ok := spans["fleet"][id]
			if !ok {
				continue
			}
			selfUS = append(selfUS, us(r.dur()-h.dur()))
			pt.router = &r
		}
		// The handler's self time is its duration minus the part its
		// stage spans cover. A POST's stage spans all start together
		// (the group is admitted at once), so that part is the longest
		// span, counted only when every input's span is still in the
		// plane's ring.
		g := groups[id]
		if len(g) != rec.n {
			continue
		}
		var longest time.Duration
		for _, sr := range g {
			longest = max(longest, total(sr))
		}
		replyUS = append(replyUS, us(h.dur()-longest))
		pt.stages = g
		out.joined = append(out.joined, pt)
	}
	out.layer["serve.handler_us"] = mean(handlerUS)
	out.layer["serve.reply_us"] = mean(replyUS)
	out.layer["fleet.self_us"] = 0 // no router on the path
	if w.Routed {
		out.layer["fleet.self_us"] = mean(selfUS)
	}
	sort.Slice(out.joined, func(i, j int) bool { return out.joined[i].idx < out.joined[j].idx })
	if n := len(out.joined); n > traceKeep {
		out.joined = out.joined[n-traceKeep:]
	}
	if len(out.joined) == 0 {
		return nil, fmt.Errorf("traced run joined no POST across its layers")
	}
	return out, nil
}

func total(sr telemetry.SpanRecord) time.Duration {
	var t time.Duration
	for _, s := range sr.Stages {
		t += s.Dur
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stackSnapshot is the counters a traced window is measured between.
type stackSnapshot struct {
	stages      []telemetry.HistSnapshot // summed over the workload's models
	batches     []uint64
	reroutes    uint64
	proxyErrors uint64
}

func (st *stack) snapshot(w *workload) stackSnapshot {
	var s stackSnapshot
	for _, name := range w.Models {
		m, err := st.reg.Get(name)
		if err != nil {
			continue
		}
		for i, h := range m.Server().Telemetry().StageSnapshot() {
			if i >= len(s.stages) {
				s.stages = append(s.stages, telemetry.HistSnapshot{})
			}
			s.stages[i].Count += h.Count
			s.stages[i].Sum += h.Sum
		}
		for i, n := range m.Server().Stats().BatchSizes {
			if i >= len(s.batches) {
				s.batches = append(s.batches, 0)
			}
			s.batches[i] += n
		}
	}
	if st.router != nil {
		rs := st.router.Stats()
		s.reroutes = rs.Reroutes
		for _, r := range rs.Replicas {
			s.proxyErrors += r.Errors
		}
	}
	return s
}

// stageMeanUS is the mean duration of stage i between two snapshots.
func (s stackSnapshot) stageMeanUS(before stackSnapshot, i int) float64 {
	if i >= len(s.stages) {
		return 0
	}
	n := s.stages[i].Count
	sum := s.stages[i].Sum
	if i < len(before.stages) {
		n -= before.stages[i].Count
		sum -= before.stages[i].Sum
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

// batchMean is the mean micro-batch size between two snapshots.
func (s stackSnapshot) batchMean(before stackSnapshot) float64 {
	var n, inputs uint64
	for i, c := range s.batches {
		if i < len(before.batches) {
			c -= before.batches[i]
		}
		n += c
		inputs += c * uint64(i+1)
	}
	if n == 0 {
		return 0
	}
	return float64(inputs) / float64(n)
}

// writeChromeTrace writes the joined POSTs as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one process per layer, one row per POST
// (per input for the stage spans), timestamps in microseconds from the
// first kept POST. The telemetry plane times stages against its own
// epoch, so each POST's stage spans are placed from its replica handler
// span's start.
func writeChromeTrace(path string, joined []postTrace) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for pid, name := range []string{"bench.client", "fleet.router", "serve.handler", "serve.stages"} {
		evs = append(evs, event{Name: "process_name", Ph: "M", PID: pid + 1, Args: map[string]any{"name": name}})
	}
	if len(joined) == 0 {
		return fmt.Errorf("no joined POSTs to write")
	}
	origin := joined[0].client.start
	at := func(t time.Time) float64 { return us(t.Sub(origin)) }
	add := func(name string, pid, tid int, s span) {
		evs = append(evs, event{Name: name, Ph: "X", TS: at(s.start), Dur: us(s.dur()), PID: pid, TID: tid,
			Args: map[string]any{"trace_id": s.id}})
	}
	for _, pt := range joined {
		add("client", 1, pt.idx, pt.client)
		if pt.router != nil {
			add("router", 2, pt.idx, *pt.router)
		}
		add("handler", 3, pt.idx, pt.handler)
		for _, sr := range pt.stages {
			ts := at(pt.handler.start)
			for _, st := range sr.Stages {
				d := us(st.Dur)
				evs = append(evs, event{Name: st.Stage, Ph: "X", TS: ts, Dur: d, PID: 4, TID: int(sr.Seq),
					Args: map[string]any{"trace_id": pt.id, "model": sr.Model, "seq": sr.Seq}})
				ts += d
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
