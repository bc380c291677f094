// Serving walkthrough: stand the multi-model SCONNA inference service
// up in-process. One trained CNN is quantized at two precisions and
// registered as two named, versioned models behind one HTTP surface;
// traffic routes by name (plus the legacy default alias), a model is
// hot-swapped out under traffic, per-model replays stay bit-identical
// across pool sizes, and
// the telemetry plane traces requests stage by stage, exporting
// Prometheus text on /metrics and a Chrome trace on /debug/traces.
// Finally the fleet plane boots a two-replica ring behind a router,
// kills the replica that owns a model, and shows traffic rerouting to
// the survivor with the dead replica's breaker open in /metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func main() {
	// 1. One trained float CNN, quantized at two operand precisions:
	// two genuinely different quantized models (different weights,
	// different versions) sharing a lineage — the cheapest way to a
	// heterogeneous model fleet.
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = 5
	examples := dataset.Generate(dcfg, 160)
	model := nn.BuildSmallCNN(4, dataset.NumClasses, 5)
	model.Train(examples[:120], 4, 16, nn.SGD{LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(5)))
	hi, err := quant.Quantize(model, 8, examples[:32])
	if err != nil {
		log.Fatal(err)
	}
	lo, err := quant.Quantize(model, 4, examples[:32])
	if err != nil {
		log.Fatal(err)
	}

	// 2. The quantized artifact: how models reach a production server.
	// sconnaserve -save-quant writes this file; -model name=path loads
	// it — no retraining or requantization at boot. The content digest
	// is the model's version ID, stable across the round trip.
	dir, err := os.MkdirTemp("", "sconna-serving-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hi8.qnn")
	if err := hi.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := quant.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifact round trip: version %s -> %s (stable=%v)\n\n",
		hi.Digest().Short(), loaded.Digest().Short(), hi.Digest() == loaded.Digest())

	// 3. The registry: every model gets its own engine pool,
	// micro-batcher and stats; the first registered is the default the
	// legacy /v1/classify alias routes to.
	// Each model's engine factory runs at that model's operand
	// precision (as sconnaserve does per -model).
	factoryAt := func(bits int) quant.EngineFactory {
		ccfg := core.DefaultConfig()
		ccfg.Bits = bits
		ccfg.N = 64
		ccfg.M = 1
		return quant.SconnaEngineFactory(ccfg)
	}
	factory := factoryAt(8)
	opts := serve.Options{
		MaxBatch:   16,
		PoolSize:   2,
		InputShape: []int{1, 16, 16},
		ClassNames: dataset.ClassNames[:],
	}
	reg := serve.NewRegistry()
	if _, err := reg.Register("hi8", loaded, factory, opts); err != nil {
		log.Fatal(err)
	}
	if _, err := reg.Register("lo4", lo, factoryAt(4), opts); err != nil {
		log.Fatal(err)
	}
	hs, base, err := serve.ListenLocal(reg.Handler())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving models %v on %s\n\n", reg.Names(), base)

	// Classify the same inputs through both named routes and the legacy
	// alias, exactly as clients would.
	batch := make([][]float32, 4)
	for i := range batch {
		batch[i] = examples[120+i].X.Data
	}
	payload, _ := json.Marshal(map[string]any{"inputs": batch})
	for _, path := range []string{"/v1/models/hi8/classify", "/v1/models/lo4/classify", "/v1/classify"} {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			log.Fatal(err)
		}
		var out struct{ Results []serve.Result }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("POST %s:\n", path)
		for i, r := range out.Results {
			fmt.Printf("  input %d: seq=%d class=%q (label %q)\n",
				i, r.Seq, r.ClassName, dataset.ClassNames[examples[120+i].Label])
		}
	}

	// The listing names every model with its content-addressed version
	// and private traffic counters.
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		log.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("\nGET /v1/models: %s\n", listing)

	// 4. Hot unregister under a live listener: lo4 drains gracefully and
	// its route 404s while hi8 keeps serving.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Unregister(ctx, "lo4"); err != nil {
		log.Fatal(err)
	}
	code := func(path string) int {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	fmt.Printf("\nafter unregistering lo4: lo4 -> %d, hi8 -> %d\n",
		code("/v1/models/lo4/classify"), code("/v1/models/hi8/classify"))
	hs.Close()
	if err := reg.DrainAll(ctx); err != nil {
		log.Fatal(err)
	}

	// 5. Replay: every response is a pure function of (model, input) —
	// the SC engines key their ADC noise by the operands — so the same
	// trace replays bit-identically at any pool size and any batching.
	trace := make([]*tensor.T, 3)
	for i := range trace {
		trace[i] = examples[120+i].X
	}
	replay := func(pool int) []serve.Result {
		o := opts
		o.PoolSize = pool
		o.QueueDepth = 32
		dreg := serve.NewRegistry()
		if _, err := dreg.Register("hi8", hi, factory, o); err != nil {
			log.Fatal(err)
		}
		defer dreg.DrainAll(ctx)
		m, err := dreg.Get("hi8")
		if err != nil {
			log.Fatal(err)
		}
		results, err := m.Server().SubmitBatch(context.Background(), trace)
		if err != nil {
			log.Fatal(err)
		}
		return results
	}
	a, b := replay(1), replay(4)
	fmt.Println("\nreplay (pool=1 vs pool=4):")
	for i := range a {
		identical := len(a[i].Logits) == len(b[i].Logits)
		for j := range a[i].Logits {
			identical = identical && a[i].Logits[j] == b[i].Logits[j]
		}
		fmt.Printf("  seq %d: class=%q bit-identical=%v\n", a[i].Seq, a[i].ClassName, identical)
	}

	// 6. Telemetry: arm the tracing plane and scrape it. Each request
	// gets a replay-stable span (trace ID derived from its arrival seq,
	// joining any client-stamped X-Trace-Id), per-stage latencies land
	// in log2 histograms, and the surface exports as Prometheus text on
	// GET /metrics plus a Chrome trace-event dump on GET /debug/traces.
	// A nil serve.Options.Telemetry (the default) keeps the zero-cost
	// path.
	to := opts
	to.Telemetry = &telemetry.Options{TraceRing: 64}
	treg := serve.NewRegistry()
	if _, err := treg.Register("hi8", hi, factory, to); err != nil {
		log.Fatal(err)
	}
	defer treg.DrainAll(ctx)
	ths, tbase, err := serve.ListenLocal(telemetry.WithPprof(treg.Handler()))
	if err != nil {
		log.Fatal(err)
	}
	defer ths.Close()
	for i := 0; i < 8; i++ {
		req, err := http.NewRequest("POST", tbase+"/v1/models/hi8/classify", bytes.NewReader(payload))
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(telemetry.TraceIDHeader, telemetry.TraceID(uint64(i)))
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	mresp, err := http.Get(tbase + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := telemetry.ValidateExposition(string(exposition)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntelemetry: GET /metrics (selected series)")
	for _, line := range strings.Split(string(exposition), "\n") {
		if strings.HasPrefix(line, "sconna_serve_requests_total") ||
			strings.HasPrefix(line, "sconna_serve_latency_seconds_count") ||
			strings.HasPrefix(line, "sconna_serve_traces_total") {
			fmt.Printf("  %s\n", line)
		}
	}
	tresp, err := http.Get(tbase + "/debug/traces")
	if err != nil {
		log.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&chrome); err != nil {
		log.Fatal(err)
	}
	tresp.Body.Close()
	spans := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	fmt.Printf("telemetry: GET /debug/traces dumped %d stage slices across %d events (load in chrome://tracing or Perfetto)\n",
		spans, len(chrome.TraceEvents))

	// 7. Fleet: the same registry, distributed. Two replicas each serve
	// hi8 (in production each boots from the artifact store via
	// `sconnaserve -pull name=digest`); a router discovers their model
	// sets, places names on its bounded-load rendezvous ring, and
	// proxies classify traffic with failover and a per-replica circuit
	// breaker — what `sconnaserve -router -replica host:port,...` runs
	// as a standalone binary. Kill the owning replica and traffic
	// reroutes to the survivor while /metrics reports the open breaker.
	var fleetServers []*http.Server
	var members []string
	for i := 0; i < 2; i++ {
		freg := serve.NewRegistry()
		if _, err := freg.Register("hi8", hi, factory, opts); err != nil {
			log.Fatal(err)
		}
		defer freg.DrainAll(ctx)
		fhs, fbase, err := serve.ListenLocal(freg.Handler())
		if err != nil {
			log.Fatal(err)
		}
		defer fhs.Close()
		fleetServers = append(fleetServers, fhs)
		members = append(members, strings.TrimPrefix(fbase, "http://"))
	}
	rt := fleet.NewRouter(fleet.RouterOptions{
		Replicas: members,
		Breaker: &resilience.BreakerOptions{
			Window: 8, FailureThreshold: 0.5, MinSamples: 2,
			Cooldown: time.Minute, HalfOpenProbes: 1,
		},
	})
	if err := rt.Refresh(ctx); err != nil {
		log.Fatal(err)
	}
	rhs, rbase, err := serve.ListenLocal(rt.Handler())
	if err != nil {
		log.Fatal(err)
	}
	defer rhs.Close()
	fmt.Printf("\nfleet: routing %v across a 2-replica ring, hi8 assigned to %s\n",
		rt.Models(), rt.Assignments()["hi8"])
	servedBy := func() string {
		resp, err := http.Post(rbase+"/v1/models/hi8/classify", "application/json", bytes.NewReader(payload))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("fleet classify: %d", resp.StatusCode)
		}
		return resp.Header.Get(serve.ServedByHeader)
	}
	owner := servedBy()
	for i, m := range members {
		if m == owner {
			fleetServers[i].Close()
		}
	}
	// Post until the breaker trips: every request still answers 200 via
	// the survivor — failover is the router's job, not the client's.
	var rerouted string
	for rt.Stats().Health != "degraded" {
		rerouted = servedBy()
	}
	fmt.Printf("fleet: killed %s; traffic rerouted to %s with zero client errors (reroutes=%d)\n",
		owner, rerouted, rt.Stats().Reroutes)
	fresp, err := http.Get(rbase + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	fdoc, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err := telemetry.ValidateExposition(string(fdoc)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("fleet: GET /metrics (router series)")
	for _, line := range strings.Split(string(fdoc), "\n") {
		if strings.HasPrefix(line, "sconna_router_breaker_state") ||
			strings.HasPrefix(line, "sconna_router_reroutes_total") {
			fmt.Printf("  %s\n", line)
		}
	}
}
