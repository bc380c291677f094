// Command sconnaserve is the long-lived SCONNA inference service: a
// model registry of named, versioned quantized CNNs, each behind its
// own micro-batching engine pool, served over one HTTP surface.
//
// Usage:
//
//	sconnaserve [-addr :8080] [-engine sconna|exact]
//	            [-op-stats] [-pool N] [-max-batch N] [-max-wait D] [-queue N]
//	            [-request-timeout D] [-max-inflight N] [-breaker]
//	            [-model name=artifact.qnn ...]
//	            [-store-dir DIR] [-store-url URL] [-store-put FILE ...]
//	            [-pull name=digest ...]
//	            [-router] [-replica host:port,...] [-refresh D]
//	            [-width N] [-train N] [-epochs N] [-seed N]
//	            [-weights FILE] [-save-weights FILE]
//	            [-save-quant FILE] [-quantize-only]
//	            [-bits B] [-vdpe-size N] [-adc-seed N]
//	            [-telemetry] [-trace-ring N] [-pprof]
//
// With repeatable -model flags the server loads pre-quantized model
// artifacts (written by -save-quant, or quant.SaveFile) and registers
// each under its name — no training or quantization at boot; the first
// -model is the default. Without -model it trains (or loads float
// weights for) one CNN, quantizes it and registers it as "default",
// exactly the PR 4 behavior.
//
// The fleet plane distributes that same stack across machines. -store-put
// FILE loads a quantized artifact, stores it under its content digest in
// the -store-dir artifact store (atomic, idempotent) and prints
// "digest path" per file, then exits. Repeatable -pull name=digest flags
// fetch artifacts from the store — -store-url (a router's or any
// StoreHandler's base URL) or -store-dir — validate the bytes against
// the requested digest and register each under its name exactly as
// -model does; -model and -pull combine, first of either is the
// default. -router turns the process into a fleet router: model names
// consistent-hash onto the -replica ring (bounded-load rendezvous over
// splitmix64 — a pure function of the member set), classify traffic
// proxies with deadline propagation (-request-timeout), per-replica
// circuit breakers and candidate-order failover, responses carry
// X-Served-By, and the model set refreshes from the replicas' /v1/models
// every -refresh. With -store-dir the router also serves the artifact
// store at GET /v1/artifacts[/{digest}], so replicas can pull models
// from the box that routes to them.
//
// The HTTP surface routes by model name — POST
// /v1/models/{name}/classify, GET /v1/models (name/version/stats
// listing), GET /v1/models/{name}/stats — while POST /v1/classify stays
// a byte-compatible alias for the default model. GET /healthz and GET
// /stats (per-model sections) round it out. SIGINT/SIGTERM drains every
// model gracefully: admissions stop, queued batches finish, the process
// exits 0.
//
// Every response is a pure function of (model, input): the engines key
// their ADC noise by the operands, so a recorded trace replays
// bit-identically at any pool size and any batching, for every
// registered model and every -engine.
//
// -op-stats turns on the op/energy accounting plane: every model's
// stats gain an "ops" section with dense-vs-executed arithmetic and
// memory-traffic totals, the zero-skipped fraction, and per-inference
// energy under the electronic and SCONNA cost models. Off by default —
// the recorder is never allocated and the hot path does no counting.
//
// The resilience plane is flag-gated: -request-timeout imposes a
// per-model deadline on queued requests (expiry is a 504, distinct
// from a caller hanging up), -max-inflight installs a registry-wide
// admission budget split across models by weight (a saturated model
// sheds with 429 + Retry-After while the rest keep their engine time),
// and -breaker puts a circuit breaker on every routed model (5xx trip
// a rolling window; an open breaker sheds with 503 + Retry-After and
// recovers through half-open probes, visible as "degraded" in
// /healthz and per-model breaker state in /stats).
//
// Served throughput and latency are measured by the repository
// benchmark in bench/ (bash bench/run.sh), which boots this same stack
// through the public APIs; its behaviour is checked by go test.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/resilience"
	"repro/internal/sckernel"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// modelSpec is one -model flag: a registry name and an artifact path.
type modelSpec struct {
	name, path string
}

// modelFlags collects repeated -model name=path flags in order.
type modelFlags []modelSpec

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, s := range *m {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, modelSpec{name: name, path: path})
	return nil
}

// pullFlags collects repeated -pull name=digest flags in order (the
// digest rides in modelSpec.path).
type pullFlags []modelSpec

func (p *pullFlags) String() string {
	parts := make([]string, len(*p))
	for i, s := range *p {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (p *pullFlags) Set(v string) error {
	name, dig, ok := strings.Cut(v, "=")
	if !ok || name == "" || dig == "" {
		return fmt.Errorf("want name=digest, got %q", v)
	}
	*p = append(*p, modelSpec{name: name, path: dig})
	return nil
}

// stringList collects a repeatable string flag in order.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// splitReplicas parses the -replica list, tolerating spaces and
// trailing commas.
func splitReplicas(v string) []string {
	var out []string
	for _, r := range strings.Split(v, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}

// pullStore selects the artifact store -pull fetches from: a remote
// StoreHandler when -store-url is set, else the local -store-dir.
func pullStore(storeURL, storeDir string) fleet.Store {
	switch {
	case storeURL != "":
		return &fleet.HTTPStore{Base: storeURL}
	case storeDir != "":
		ds, err := fleet.OpenDiskStore(storeDir)
		if err != nil {
			fatal(err)
		}
		return ds
	}
	fatal(fmt.Errorf("-pull needs -store-url or -store-dir"))
	return nil // unreachable
}

// runStorePut loads each artifact and stores it in -store-dir under its
// content digest, printing "digest path" per file to stdout — the
// digest is exactly what replicas then -pull.
func runStorePut(dir string, files []string) {
	if dir == "" {
		fatal(fmt.Errorf("-store-put needs -store-dir"))
	}
	store, err := fleet.OpenDiskStore(dir)
	if err != nil {
		fatal(err)
	}
	for _, path := range files {
		qn, err := quant.LoadFile(path)
		if err != nil {
			fatal(err)
		}
		dig, err := store.Put(qn)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %s\n", dig, path)
	}
}

// runRouter is the -router serve loop: a fleet router over the replica
// ring, the same listen/SIGTERM/drain lifecycle as the model server,
// plus a background model-set refresh so models registered (or
// replicas recovering) after boot get picked up without a restart.
func runRouter(addr string, replicas []string, requestTimeout, refresh time.Duration, storeDir string) {
	ropts := fleet.RouterOptions{Replicas: replicas, RequestTimeout: requestTimeout}
	if storeDir != "" {
		store, err := fleet.OpenDiskStore(storeDir)
		if err != nil {
			fatal(err)
		}
		ropts.Store = store
		fmt.Fprintf(os.Stderr, "sconnaserve: serving artifact store %s at %s\n", storeDir, fleet.ArtifactPath)
	}
	rt := fleet.NewRouter(ropts)
	bootCtx, bootCancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := rt.Refresh(bootCtx); err != nil {
		// Replicas may still be booting; breakers and the refresh loop
		// cover the gap, so a partial first poll is not fatal.
		fmt.Fprintf(os.Stderr, "sconnaserve: router boot refresh: %v\n", err)
	}
	bootCancel()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: rt.Handler()}
	fmt.Fprintf(os.Stderr, "sconnaserve: routing %d model(s) %v across %d replica(s) %v on %s (refresh %v)\n",
		len(rt.Models()), rt.Models(), len(replicas), replicas, ln.Addr(), refresh)

	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(refresh)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), refresh)
				_ = rt.Refresh(ctx) // best-effort: breakers cover dead replicas between polls
				cancel()
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "sconnaserve: %v — draining\n", got)
	case err := <-errc:
		fatal(err)
	}
	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("http shutdown: %w", err))
	}
	st := rt.Stats()
	for _, r := range st.Replicas {
		state := "closed"
		if r.Breaker != nil {
			state = r.Breaker.State
		}
		fmt.Fprintf(os.Stderr, "sconnaserve: replica %q proxied=%d errors=%d breaker=%s\n",
			r.Name, r.Proxied, r.Errors, state)
	}
	fmt.Fprintf(os.Stderr, "sconnaserve: router reroutes=%d unrouted=%d\n", st.Reroutes, st.Unrouted)
	fmt.Fprintln(os.Stderr, "sconnaserve: drained clean")
}

// engineNames is the documented -engine list, in usage order; every
// name has a buildFactory case.
var engineNames = []string{"sconna", "exact"}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	engineName := flag.String("engine", "sconna", "dot-product engine: "+strings.Join(engineNames, "|"))
	opStats := flag.Bool("op-stats", false,
		"count per-model arithmetic/memory ops and energy, reported under /stats (off = zero cost)")
	pool := flag.Int("pool", 0, "per-model engine-pool size (0 = all cores)")
	maxBatch := flag.Int("max-batch", 32, "micro-batch size cap")
	maxWait := flag.Duration("max-wait", 0, "how long a partial batch waits to fill (0 = fire immediately)")
	queue := flag.Int("queue", 0, "request-queue bound (0 = 4x max-batch); beyond it requests get 429")
	requestTimeout := flag.Duration("request-timeout", 0,
		"per-model server-imposed deadline; requests expiring in the queue get 504 (0 = none)")
	maxInFlight := flag.Int("max-inflight", 0,
		"registry-wide in-flight admission budget, split across models by weight (0 = unlimited)")
	breaker := flag.Bool("breaker", false,
		"per-model circuit breakers on routed paths: 5xx trip a rolling window, open sheds 503 + Retry-After")

	var models modelFlags
	flag.Var(&models, "model",
		"register a pre-quantized model artifact as name=path (repeatable; first is the default model)")

	var pulls pullFlags
	flag.Var(&pulls, "pull",
		"fetch a model artifact as name=digest from the artifact store (-store-url or -store-dir) and register it like -model (repeatable)")
	storeDir := flag.String("store-dir", "",
		"artifact store directory: -store-put destination, -pull source, served by -router at /v1/artifacts")
	storeURL := flag.String("store-url", "", "remote artifact store base URL for -pull (e.g. a router's http://host:port)")
	var storePuts stringList
	flag.Var(&storePuts, "store-put",
		"store a quantized artifact FILE in -store-dir under its content digest, print \"digest path\", exit (repeatable)")
	router := flag.Bool("router", false, "run as a fleet router over the -replica ring instead of serving models")
	replicas := flag.String("replica", "", "comma-separated replica addresses (host:port,...) the -router hashes models onto")
	refresh := flag.Duration("refresh", 2*time.Second, "router model-set refresh interval (polls the replicas' /v1/models)")

	width := flag.Int("width", 4, "served CNN width (nn.BuildSmallCNN)")
	trainN := flag.Int("train", 192, "training examples for the in-process trained model")
	epochs := flag.Int("epochs", 4, "training epochs")
	seed := flag.Int64("seed", 11, "model/dataset seed")
	weights := flag.String("weights", "", "load float weights from this file instead of training")
	saveWeights := flag.String("save-weights", "", "write the served model's float weights to this file")
	saveQuant := flag.String("save-quant", "", "write the built model's quantized artifact to this file")
	quantizeOnly := flag.Bool("quantize-only", false, "build and -save-quant the artifact, then exit without serving")

	bits := flag.Int("bits", 8, "operand precision for the in-process built model")
	vdpeSize := flag.Int("vdpe-size", 64, "functional core VDPE size N")
	adcSeed := flag.Int64("adc-seed", 2023, "ADC noise seed (keys every conversion's error with its operands)")

	telemetryOn := flag.Bool("telemetry", true,
		"per-request tracing and per-stage latency histograms (GET /metrics, GET /debug/traces); off = the zero-cost Nop path")
	traceRing := flag.Int("trace-ring", 256, "per-model bound on the in-memory ring of recent traces")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof on the serving listener")
	flag.Parse()

	// Reject a bad engine name, or a VDPE size the SC engine cannot
	// build, before any training or artifact loading.
	if !slices.Contains(engineNames, strings.ToLower(*engineName)) {
		fmt.Fprintf(os.Stderr, "sconnaserve: unknown -engine %q; want one of %s\n", *engineName, strings.Join(engineNames, "|"))
		os.Exit(2)
	}
	if strings.EqualFold(*engineName, "sconna") {
		if err := checkVDPESize(*vdpeSize, *adcSeed); err != nil {
			fmt.Fprintln(os.Stderr, "sconnaserve:", err)
			os.Exit(2)
		}
	}
	if *router {
		if *replicas == "" {
			fatal(fmt.Errorf("-router needs -replica host:port,..."))
		}
		runRouter(*addr, splitReplicas(*replicas), *requestTimeout, *refresh, *storeDir)
		return
	}
	if len(storePuts) > 0 {
		runStorePut(*storeDir, storePuts)
		return
	}

	if len(models) > 0 || len(pulls) > 0 {
		for flagName, set := range map[string]bool{
			"weights": *weights != "", "save-weights": *saveWeights != "",
			"save-quant": *saveQuant != "", "quantize-only": *quantizeOnly,
		} {
			if set {
				fatal(fmt.Errorf("-%s applies to the in-process built model and cannot combine with -model/-pull", flagName))
			}
		}
	}
	if *quantizeOnly && *saveQuant == "" {
		fatal(fmt.Errorf("-quantize-only needs -save-quant FILE"))
	}
	if len(models) == 0 && len(pulls) == 0 {
		// Reject bad model-building flags before any training.
		if err := checkBuildFlags(*width, *trainN, *epochs, *bits, *weights != ""); err != nil {
			fmt.Fprintln(os.Stderr, "sconnaserve:", err)
			os.Exit(2)
		}
	}

	opts := serve.Options{
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		QueueDepth:     *queue,
		PoolSize:       *pool,
		OpAccounting:   *opStats,
		InputShape:     []int{1, 16, 16},
		ClassNames:     dataset.ClassNames[:],
		DefaultTimeout: *requestTimeout,
	}
	if *breaker {
		opts.Breaker = &resilience.BreakerOptions{} // documented defaults
	}
	if *telemetryOn {
		opts.Telemetry = &telemetry.Options{TraceRing: *traceRing}
	}

	// Assemble the model set: loaded artifacts, or the in-process built
	// (trained or float-weight-loaded, then quantized) default.
	var entries []struct {
		name string
		qn   *quant.Network
	}
	if len(models) > 0 || len(pulls) > 0 {
		for _, spec := range models {
			qn, err := quant.LoadFile(spec.path)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sconnaserve: loaded %s as %q (version %s, %d-bit, %d weights)\n",
				spec.path, spec.name, qn.Digest().Short(), qn.Bits, qn.NumWeights())
			entries = append(entries, struct {
				name string
				qn   *quant.Network
			}{spec.name, qn})
		}
		if len(pulls) > 0 {
			store := pullStore(*storeURL, *storeDir)
			for _, spec := range pulls {
				qn, err := store.Get(spec.path)
				if err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "sconnaserve: pulled %s as %q (%d-bit, %d weights)\n",
					spec.path[:12], spec.name, qn.Bits, qn.NumWeights())
				entries = append(entries, struct {
					name string
					qn   *quant.Network
				}{spec.name, qn})
			}
		}
	} else {
		net, examples, err := buildFloatModel(*width, *trainN, *epochs, *seed, *weights, *saveWeights)
		if err != nil {
			fatal(err)
		}
		qn, err := quantizeModel(net, *bits, examples)
		if err != nil {
			fatal(err)
		}
		if *saveQuant != "" {
			if err := qn.SaveFile(*saveQuant); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sconnaserve: wrote quantized artifact %s (version %s)\n",
				*saveQuant, qn.Digest().Short())
			if *quantizeOnly {
				return
			}
		}
		entries = append(entries, struct {
			name string
			qn   *quant.Network
		}{serve.DefaultModelName, qn})
	}

	reg := serve.NewRegistry()
	for _, e := range entries {
		factory, err := buildFactory(*engineName, e.qn.Bits, *vdpeSize, *adcSeed)
		if err != nil {
			fatal(err)
		}
		m, err := reg.Register(e.name, e.qn, factory, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sconnaserve: registered %q version %s (%d params)\n",
			m.Name(), m.Version()[:12], e.qn.NumWeights())
	}
	if *maxInFlight > 0 {
		reg.SetMaxInFlight(*maxInFlight)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	handler := reg.Handler()
	if *pprofOn {
		handler = telemetry.WithPprof(handler)
	}
	hs := &http.Server{Handler: handler}
	fmt.Fprintf(os.Stderr,
		"sconnaserve: serving %d model(s) %v on %s (engine=%s max-batch=%d)\n",
		reg.Len(), reg.Names(), ln.Addr(), *engineName, *maxBatch)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "sconnaserve: %v — draining\n", got)
	case err := <-errc:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("http shutdown: %w", err))
	}
	final := reg.Stats()
	if err := reg.DrainAll(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	for _, m := range final.Models {
		fmt.Fprintf(os.Stderr, "sconnaserve: model %q served=%d batches=%d rejected=%d p50=%v p99=%v\n",
			m.Name, m.Stats.Served, m.Stats.Batches, m.Stats.Rejected, m.Stats.LatencyP50, m.Stats.LatencyP99)
	}
	fmt.Fprintln(os.Stderr, "sconnaserve: drained clean")
}

// checkBuildFlags rejects the in-process build's flags that would panic
// in nn.BuildSmallCNN (-width), calibrate the quantizer on no examples
// (-train), train nothing (-epochs, unless -weights supplies the
// weights) or ask the quantizer for a precision it refuses (-bits).
func checkBuildFlags(width, trainN, epochs, bits int, loadWeights bool) error {
	switch {
	case bits < quant.MinBits || bits > quant.MaxBits:
		return fmt.Errorf("-bits %d: want %d..%d", bits, quant.MinBits, quant.MaxBits)
	case width < 1:
		return fmt.Errorf("-width %d: want at least 1", width)
	case trainN < 1:
		return fmt.Errorf("-train %d: want at least 1 (it is also the calibration set)", trainN)
	case epochs < 1 && !loadWeights:
		return fmt.Errorf("-epochs %d: want at least 1 when no -weights file is given", epochs)
	}
	return nil
}

// buildFloatModel trains (or loads) the served CNN and returns it with
// the calibration examples.
func buildFloatModel(width, trainN, epochs int, seed int64, weights, saveWeights string) (*nn.Network, []nn.Example, error) {
	net := nn.BuildSmallCNN(width, dataset.NumClasses, seed)
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = seed
	examples := dataset.Generate(dcfg, trainN)
	if weights != "" {
		if err := net.LoadFile(weights); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "sconnaserve: loaded weights from %s\n", weights)
	} else {
		res := net.Train(examples, epochs, 16, nn.SGD{LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(seed)))
		fmt.Fprintf(os.Stderr, "sconnaserve: trained width-%d CNN on %d examples (%d epochs, train acc %.0f%%)\n",
			width, trainN, epochs, 100*res.TrainAccuracy)
	}
	if saveWeights != "" {
		if err := net.SaveFile(saveWeights); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "sconnaserve: wrote weights to %s\n", saveWeights)
	}
	return net, examples, nil
}

// quantizeModel quantizes the float network at the given precision,
// calibrating over (at most) the first 48 examples — the same
// calibration window at every precision, so versions differ only in
// bits.
func quantizeModel(net *nn.Network, bits int, examples []nn.Example) (*quant.Network, error) {
	calib := examples
	if len(calib) > 48 {
		calib = calib[:48]
	}
	return quant.Quantize(net, bits, calib)
}

// checkVDPESize runs the SC engine's own configuration check
// (sckernel.New) on -vdpe-size, so a size the engine cannot build — not
// positive, past the DWDM grid's channel count, or overflowing the
// converter — exits before any training. It checks at quant.MaxBits,
// the most demanding precision a served model can have.
func checkVDPESize(vdpeSize int, adcSeed int64) error {
	if _, err := sckernel.New(scConfig(quant.MaxBits, vdpeSize, adcSeed)); err != nil {
		return fmt.Errorf("-vdpe-size %d: %v", vdpeSize, err)
	}
	return nil
}

// scConfig is the functional core configuration of -engine sconna.
func scConfig(bits, vdpeSize int, adcSeed int64) core.Config {
	ccfg := core.DefaultConfig()
	ccfg.Bits = bits
	ccfg.N = vdpeSize
	ccfg.M = 1
	ccfg.ADCSeed = adcSeed
	return ccfg
}

// buildFactory selects the dot-product substrate at the model's operand
// precision.
func buildFactory(name string, bits, vdpeSize int, adcSeed int64) (quant.EngineFactory, error) {
	switch strings.ToLower(name) {
	case "exact":
		return quant.SharedEngine(quant.ExactEngine{}), nil
	case "sconna":
		// The packed SC kernel engine: bit-identical to the scalar
		// reference quant.SconnaEngine on every operand.
		return sckernel.EngineFactory(scConfig(bits, vdpeSize, adcSeed)), nil
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sconnaserve:", err)
	os.Exit(1)
}
