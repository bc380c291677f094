package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/telemetry"
)

// scrapeMetrics fetches and validates the server's /metrics document.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	doc := string(body)
	if err := telemetry.ValidateExposition(doc); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, doc)
	}
	return doc
}

// The golden /metrics pin on the surface sconnaserve serves, a
// one-entry registry: deterministic serial traffic must export a valid
// exposition document whose family order and deterministic sample
// lines match exactly — scrapers and dashboards key on both.
func TestMetricsGolden(t *testing.T) {
	reg, s := servedModel(t, quant.SharedEngine(quant.ExactEngine{}), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 1, QueueDepth: 8,
		Telemetry: &telemetry.Options{},
	})
	for _, x := range testInputs(5, 31) {
		if _, err := s.Submit(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	doc := scrapeMetrics(t, registryHTTP(t, reg).URL)

	// Family order is part of the format contract: registry gauges, the
	// model-labelled serve families, then the quota families (breaker
	// families have no samples without Options.Breaker).
	var families []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	wantFamilies := []string{
		"sconna_registry_models",
		"sconna_registry_max_in_flight",
		"sconna_registry_draining",
		"sconna_serve_requests_total",
		"sconna_serve_batches_total",
		"sconna_serve_batch_size_total",
		"sconna_serve_queue_depth",
		"sconna_serve_queue_capacity",
		"sconna_serve_engines_busy",
		"sconna_serve_pool_size",
		"sconna_serve_latency_seconds",
		"sconna_serve_stage_latency_seconds",
		"sconna_serve_traces_total",
		"sconna_quota_in_flight",
		"sconna_quota_limit",
		"sconna_quota_rejected_total",
	}
	if fmt.Sprint(families) != fmt.Sprint(wantFamilies) {
		t.Fatalf("family order drifted:\n got %v\nwant %v", families, wantFamilies)
	}

	// Every deterministic sample line must match byte-for-byte (latency
	// buckets and sums vary run to run; counts do not).
	want := []string{
		`sconna_registry_models 1`,
		`sconna_registry_max_in_flight 0`,
		`sconna_registry_draining 0`,
	}
	for _, oc := range []string{"accepted 5", "rejected 0", "draining 0", "served 5", "cancelled 0", "expired 0"} {
		name, n, _ := strings.Cut(oc, " ")
		want = append(want, `sconna_serve_requests_total{model="default",outcome="`+name+`"} `+n)
	}
	want = append(want,
		`sconna_serve_batches_total{model="default"} 5`,
		`sconna_serve_batch_size_total{model="default",size="1"} 5`,
		`sconna_serve_queue_depth{model="default"} 0`,
		`sconna_serve_queue_capacity{model="default"} 8`,
		`sconna_serve_engines_busy{model="default"} 0`,
		`sconna_serve_pool_size{model="default"} 1`,
		`sconna_serve_latency_seconds_count{model="default"} 5`,
	)
	for _, stage := range telemetry.StageNames() {
		n := "5"
		if stage == "decode" {
			n = "0" // Go-level Submit has no HTTP decode window
		}
		want = append(want, `sconna_serve_stage_latency_seconds_count{model="default",stage="`+stage+`"} `+n)
	}
	want = append(want,
		`sconna_serve_traces_total{model="default"} 5`,
		`sconna_quota_in_flight{model="default"} 0`,
		`sconna_quota_limit{model="default"} 0`,
		`sconna_quota_rejected_total{model="default"} 0`,
	)
	var got []string
	for _, line := range strings.Split(doc, "\n") {
		if line == "" || strings.HasPrefix(line, "#") ||
			strings.Contains(line, "_bucket{") || strings.Contains(line, "_sum{") {
			continue
		}
		got = append(got, line)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("deterministic samples drifted:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// One source for the served count: under concurrent classify traffic,
// every /metrics scrape's served counter equals its latency histogram's
// _count, because both are read from one latency snapshot.
func TestMetricsServedMatchesLatencyCount(t *testing.T) {
	reg, s := servedModel(t, quant.SharedEngine(quant.ExactEngine{}), Options{
		InputShape: testShape, PoolSize: 2, MaxBatch: 4, QueueDepth: 64,
	})
	base := registryHTTP(t, reg).URL
	xs := testInputs(4, 43)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = s.Submit(context.Background(), xs[(c+i)%len(xs)])
			}
		}(c)
	}
	sample := func(doc, prefix string) string {
		for _, line := range strings.Split(doc, "\n") {
			if v, ok := strings.CutPrefix(line, prefix+" "); ok {
				return v
			}
		}
		t.Fatalf("no %s sample in:\n%s", prefix, doc)
		return ""
	}
	var last string
	for i := 0; i < 50; i++ {
		doc := scrapeMetrics(t, base)
		served := sample(doc, `sconna_serve_requests_total{model="default",outcome="served"}`)
		count := sample(doc, `sconna_serve_latency_seconds_count{model="default"}`)
		if served != count {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: served %s but latency _count %s", i, served, count)
		}
		last = served
	}
	close(stop)
	wg.Wait()
	if last == "0" {
		t.Fatal("no traffic was served while scraping")
	}
}

// The registry's /metrics after traffic on two models: the exposition
// validates, each model's served counter carries its model label and
// the traffic it took (the legacy alias counts as the default model),
// and the registry gauge counts both models.
func TestRegistryMetricsTwoModels(t *testing.T) {
	reg := twoModelRegistry(t)
	hs := registryHTTP(t, reg)
	in := marshalInput(t, testInputs(1, 151)[0].Data)
	for _, path := range []string{"/v1/classify", "/v1/models/alpha/classify", "/v1/models/beta/classify"} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(`{"input":`+in+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	doc := scrapeMetrics(t, hs.URL)
	for _, want := range []string{
		`sconna_serve_requests_total{model="alpha",outcome="served"} 2`,
		`sconna_serve_requests_total{model="beta",outcome="served"} 1`,
		"sconna_registry_models 2",
	} {
		if !strings.Contains(doc, want+"\n") {
			t.Errorf("metrics missing line %q in:\n%s", want, doc)
		}
	}
}

// Trace determinism: the same recorded trace replayed at pool sizes 1,
// 2 and 4 must produce the same trace IDs, the same per-request stage
// sequences and the same statuses — spans are keyed by arrival seq,
// which batching and pool scheduling never perturb.
func TestTraceDeterminismAcrossPools(t *testing.T) {
	factory := quant.SconnaEngineFactory(testCoreConfig())
	trace := testInputs(6, 41)
	type spanKey struct {
		traceID string
		stages  string
		status  string
	}
	run := func(pool int) map[uint64]spanKey {
		s := newTestServer(t, factory, Options{
			InputShape: testShape, PoolSize: pool, MaxBatch: 4, QueueDepth: 32,
			Telemetry: &telemetry.Options{TraceRing: 32},
		})
		if _, err := s.SubmitBatch(context.Background(), trace); err != nil {
			t.Fatal(err)
		}
		// A worker finishes each span just after delivering its result,
		// so the last spans may land after SubmitBatch returns.
		recs := s.Telemetry().Traces()
		for deadline := time.Now().Add(5 * time.Second); len(recs) < len(trace) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			recs = s.Telemetry().Traces()
		}
		out := make(map[uint64]spanKey)
		for _, rec := range recs {
			var stages []string
			for _, st := range rec.Stages {
				stages = append(stages, st.Stage)
			}
			out[rec.Seq] = spanKey{rec.TraceID, strings.Join(stages, ">"), rec.Status}
		}
		return out
	}
	first := run(1)
	if len(first) != len(trace) {
		t.Fatalf("recorded %d spans, want %d", len(first), len(trace))
	}
	for seq, sp := range first {
		if want := telemetry.TraceID(seq); sp.traceID != want {
			t.Fatalf("seq %d trace ID %q, want %q", seq, sp.traceID, want)
		}
		if sp.status != "ok" {
			t.Fatalf("seq %d status %q", seq, sp.status)
		}
	}
	for _, pool := range []int{2, 4} {
		again := run(pool)
		if len(again) != len(first) {
			t.Fatalf("pool=%d: %d spans vs %d", pool, len(again), len(first))
		}
		for seq, sp := range first {
			if again[seq] != sp {
				t.Fatalf("pool=%d seq %d drifted: %+v vs %+v", pool, seq, again[seq], sp)
			}
		}
	}
}

// The Nop-path pin: a deterministic server with telemetry armed must
// emit HTTP response bodies byte-identical to the same server with
// telemetry off — observability may never change what clients see.
func TestHTTPReplayBytesTelemetryInvariant(t *testing.T) {
	factory := quant.SconnaEngineFactory(testCoreConfig())
	trace := testInputs(8, 89)
	run := func(pool, maxBatch int, tel *telemetry.Options) []string {
		_, hs := httpServer(t, factory, Options{
			InputShape: testShape, PoolSize: pool, MaxBatch: maxBatch, QueueDepth: 64,
			Telemetry: tel,
		})
		var bodies []string
		for i, x := range trace {
			req, err := http.NewRequest("POST", hs.URL+"/v1/classify",
				strings.NewReader(`{"input":`+marshalInput(t, x.Data)+`,"logits":true}`))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if tel != nil {
				req.Header.Set(telemetry.TraceIDHeader, telemetry.TraceID(uint64(i)))
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("replay request: %d %s", resp.StatusCode, body)
			}
			bodies = append(bodies, string(body))
		}
		return bodies
	}
	off := run(1, 1, nil)
	for _, cfg := range []struct{ pool, maxBatch int }{{1, 1}, {3, 8}} {
		on := run(cfg.pool, cfg.maxBatch, &telemetry.Options{TraceRing: 16})
		for i := range off {
			if on[i] != off[i] {
				t.Fatalf("pool=%d maxBatch=%d: telemetry changed response %d:\n%s\nvs\n%s",
					cfg.pool, cfg.maxBatch, i, on[i], off[i])
			}
		}
	}
}
