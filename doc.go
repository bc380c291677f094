// Package sconna is a from-scratch Go reproduction of SCONNA — "A
// Stochastic Computing Based Optical Accelerator for Ultra-Fast,
// Energy-Efficient Inference of Integer-Quantized CNNs" (Sri Vatsavai,
// Karempudi, Thakkar, Salehi, Hastings; IPDPS 2023, arXiv:2302.07036).
//
// The module contains two cooperating planes built over shared device
// models:
//
//   - The functional plane (internal/core) computes real values through
//     the paper's devices: optical stochastic multipliers (LUT peripheral
//     driving an optical AND gate), sign-steering filter MRRs and
//     photo-charge accumulators, composed into VDPEs and VDPCs.
//
//   - The performance plane (internal/accel) is a transaction-level,
//     event-driven simulator — the Go counterpart of the authors'
//     SC_ONN_SIM — reproducing the Fig. 9 FPS / FPS/W / FPS/W/mm^2
//     comparisons against the MAM (HOLYLIGHT) and AMM (DEAP-CNN) analog
//     photonic baselines.
//
// Supporting substrates include stochastic-computing arithmetic
// (internal/sc, internal/bitstream), photonic device physics
// (internal/photonics), the Section V scalability analysis
// (internal/scalability), the PCA circuit (internal/pca), a mesh NoC
// (internal/noc), a pure-Go CNN training/quantization stack
// (internal/nn, internal/quant, internal/tensor, internal/dataset), and
// architecture descriptors for the paper's six CNNs (internal/models).
//
// # Concurrency model
//
// Both planes evaluate concurrently on the bounded worker pool of
// internal/parallel, under one invariant: parallel results are
// bit-identical to the serial path at every worker count.
//
//   - Performance plane: accel.Simulate is a pure function, so
//     accel.SimulateAll / accel.Sweep (and Fig9, the Table I solve, the
//     Fig. 7(a) frontier) simply fan independent jobs across the pool and
//     collect results in job order.
//
//   - Functional plane: every SCONNA engine computes a pure function of
//     its operands — the ADC error of a row is keyed by (ADCSeed, a
//     digest of the DIV and DKV) through core.ADC — but holds scratch,
//     so it is never shared across goroutines. core.ADC realizes the
//     paper's Gaussian converter error (1.3% MAPE, Sec. V-C) in integer
//     fixed point: each psum chunk's two PCA errors are Q24 entries of
//     a sigma-scaled table of 2^12 normal quantiles (built once per
//     process), picked by fixed 12-bit fields of the row's keyed noise
//     words, so a zero count skips nothing and no chunk's error depends
//     on another's counts; no float and no math/rand on that path. The
//     converter holds no row state: a conversion is a pure function of
//     (row key, chunk index, counts), and the engines walk the chunk
//     index themselves. A conv output's DIV and
//     DKV are the paper's full S = K*K*D point vectors, zero-padded at
//     the borders (internal/mapper, Sec. II-B), so its psum chunk seams
//     fall where the accelerator's would.
//     quant.(*Network).EvaluateParallel partitions examples into
//     fixed-size shards (quant.EvalShardSize, a property of the
//     evaluation, not of the machine) and builds one engine per shard
//     through a quant.EngineFactory. Results do not depend on the
//     partition, and hit counts merge by integer summation, so any
//     schedule reproduces the workers=1 walk exactly. accuracy.Run
//     parallelizes the same way one level up: each proxy's
//     train/quantize/evaluate pipeline is deterministic in its spec seed.
//
// Error handling aggregates per-item failures in index order
// (parallel.ForEach), keeping even failure messages deterministic.
//
// # Result caching
//
// The design-space plane is split into pure engines and cache-aware
// runners. accel.Simulate and the scalability MaxN solver are pure
// functions of their inputs, so every simulation request flows through a
// Runner (accel.Runner, scalability.Runner) that memoizes results in a
// content-addressed store (internal/cache) keyed by canonical input
// digests (internal/digest):
//
//   - Digest contract: each input type (accel.Config, models.Model,
//     scalability.Config) writes its fields through a digest.Hasher in
//     declared order under a schema tag ("repro/accel.Config@v1", ...).
//     Golden-value tests in internal/digest pin the resulting hex
//     digests, making the cache-key format a compatibility contract.
//
//   - Store layers: an in-memory LRU holds the hot working set; an
//     optional on-disk gob store (one file per digest, atomic
//     temp-file + rename writes) persists results across processes, so
//     CI, notebooks and param studies recompute only changed cells;
//     single-flight de-duplication collapses concurrent misses on one
//     digest into a single computation.
//
//   - Invalidation story: there is none to run — keys are content
//     digests of every field the computation reads, so a changed input
//     is a different address and stale entries are simply never
//     consulted. Changing what a simulation reads (or how) must bump the
//     schema tag, which retires the entire old namespace at once.
//
// Because a hit returns exactly what the pure engine would compute,
// cached, uncached, serial and parallel runs are all bit-identical at
// any worker count (asserted by the runner determinism tests). The
// package-level sweep helpers (accel.SimulateAll, Sweep, Fig9, the
// Table I solve) run through ephemeral in-memory runners; both CLIs
// accept -cache-dir to share a persistent store. Long-lived disk stores
// stay bounded via cache.Options.MaxBytes/MaxAge: opening a bounded
// store garbage-collects it (age eviction first, then
// LRU-by-mtime down to the size bound) — safe at any time, because an
// evicted content-addressed entry is recomputed on next demand, never
// served stale.
//
// # Compute plane
//
// The CNN hot path — the layers under the Table V accuracy study — runs
// on an im2col/GEMM lowering (internal/matmul) instead of per-output-
// pixel gather loops:
//
//   - Lowering: each convolution input is gathered once into a patch
//     matrix (im2col over shared, cached patch geometry, matmul.Pos);
//     the forward pass is then one cache-blocked GEMM per layer, the
//     weight gradient one GEMM against the same patch matrix, and the
//     input gradient a scatter through the same position lists. The
//     quantized plane (internal/quant) lowers each conv layer, per
//     example, to one zero-padded full-window integer operand block
//     (one S-lane row per output pixel, in weight-row order) and one
//     engine product against the weight rows as stored.
//
//   - Determinism contract: float addition is not associative, so the
//     GEMM keeps the reference reduction order — accumulators start at
//     the bias and add one partial sum per input channel in fixed
//     k-order — making outputs and gradients bit-identical to the naive
//     loops (Conv2D.ForwardNaive/BackwardNaive, quant's ForwardNaive,
//     kept as executable references and pinned by equivalence tests).
//     The quantized plane has one lowering, quant.(*Network).ForwardBatch
//     (Forward is its one-example case). Per example it hands the engine
//     exactly ForwardNaive's operand vectors — the mapper's zero-padded
//     full windows — and every engine is a pure function of its
//     operands, so an example's logits equal the reference on any
//     engine, whatever batch it is served in. Exact and ideal-ADC
//     results depend only on nonzero lanes, so they also equal the
//     earlier padding-truncated reference (a test pins it).
//
//   - Scratch ownership: float im2col buffers are layer-local (layer
//     instances are single-goroutine by contract); integer gather
//     buffers and the quantized plane's layer outputs live in a
//     quant.BatchScratch owned one-per-engine, mirroring the
//     engine-per-shard rule of EvaluateParallel. Layer outputs ping-pong
//     between its two activation arenas, grown to the largest batch
//     served, so a warm ForwardBatch allocates only the returned logits:
//     one fresh slab that never aliases the scratch, which the serving
//     plane reads after returning the engine to its pool.
//
//   - Data-parallel training: nn.TrainParallel partitions each
//     minibatch into fixed nn.TrainShardSize example shards, runs each
//     shard's forward/backward on a private replica (shared read-only
//     weights, private gradients and layer state) and all-reduces shard
//     gradients into the master in shard-index order before the SGD
//     step. Partition and reduce order depend only on the inputs, so
//     trained weights are bit-identical at every worker count. The
//     legacy serial nn.Train is kept unchanged (its flat gradient walk
//     rounds differently than the sharded reduction); the Table V study
//     selects between them with accuracy.Options.TrainWorkers.
//
// cmd/benchnn emits the compute-plane benchmark trajectory
// (BENCH_nn.json) and gates CI on the GEMM-vs-naive convolution
// speedup.
//
// # Sparsity path and op/energy accounting
//
// Integer-quantized activations are frequently zero (ReLU outputs,
// padded borders, naturally sparse inputs), and a zero DIV lane
// contributes nothing to an integer dot product — so the compute plane
// gates a sparsity-exploiting gather inside each lowering:
//
//   - Compacted gather: when a layer's quantized input is sparse enough
//     (zero fraction >= matmul.SparseThreshold), the float plane's
//     im2col gather compacts each pixel's operand vector to its nonzero
//     lanes (matmul.Im2colSparse). The integer plane goes
//     input-stationary (quant's sparseForward): each nonzero activation
//     is one engine tile against its channel's weights at every kernel
//     tap, and the products add into the outputs whose windows read it.
//     Per-layer work drops to O(nonzeros) instead of O(dense lanes).
//
//   - ZeroSkipper determinism contract: engines opt into the sparse
//     path by implementing quant.ZeroSkipper with SkipsZeros() == true,
//     which asserts three clauses — (1) Dot is a pure function of the
//     nonzero-DIV lanes, (2) an all-zero call returns 0 and may be
//     elided, (3) Dot is additive over a split of the lanes.
//     quant.ExactEngine satisfies all three trivially; the packed
//     sckernel tier satisfies them exactly when its ADC is ideal
//     (lane-local floor arithmetic, seam-independent linear ideal
//     conversion, capacity check monotone in lanes) and opts in only
//     then. Noisy
//     engines key their ADC error by every lane, zeros included, so the
//     lowering hands them the dense operand vectors unconditionally.
//     Equivalence tests pin both sides: sparse == dense bitwise for
//     every opting-in engine (across pad/stride/1x1/5x5/depthwise
//     shapes, sparsities {0, 0.5, 0.9, 1.0}, one-example, batched and
//     parallel evaluation under -race), and a recording engine sees the
//     byte-identical dense call sequence.
//
//   - Op/energy accounting: internal/opcount counts the work both ways
//     — the ops a dense lowering would execute and the ops actually
//     executed after zero skipping (multiplies, adds, reads, writes per
//     layer, via an atomic Recorder attached to quant.BatchScratch;
//     nil recorder = no counting on the hot path) — and prices profiles under Horowitz-parameterized energy
//     models (the 45nm electronic baseline and a SCONNA model derived
//     from the accel plane's power/throughput point). Profiles are pure
//     functions of (network digest, input sparsity, generator seed,
//     example count), so a cache-aware opcount.Runner memoizes them
//     content-addressed like every other runner. The sparsity-swept
//     energy tables come out of cmd/experiments -exp energy
//     (byte-identical across runs, warm cache recomputes nothing);
//     cmd/benchnn adds a sparse-vs-dense leg at -sparsity and gates CI
//     on the speedup; serving exposes per-model accounting under
//     /stats via serve.Options.OpAccounting (off = zero cost).
//
// # SC kernel plane
//
// internal/sckernel is the serving-speed form of the stochastic-computing
// functional plane: the same VDPE/VDPC semantics as internal/core, but
// each lane's count computed in closed form instead of by a bitstream
// walk.
//
//   - One analytic count: a unary input stream of ib ones ANDed with a
//     Bresenham weight stream of wb ones (the OSM LUT's pairing) carries
//     exactly ib*wb >> B ones, so every kernel counts a lane with one
//     multiply and one shift. The property is proved, not assumed:
//     sckernel.New walks every generated weight stream once per
//     precision, bit by bit, checking that its first p bits carry
//     floor(p*wb/2^B) ones, memoizes the verdict and refuses to build an
//     engine where it fails. No stream image outlives the proof.
//
//   - Equivalence contract: core.VDPE.Dot / sc.OSMLUT.MulInts stay the
//     bitwise-pinned scalar reference, the same pattern as
//     ForwardNaive/GEMM. The packed engine reproduces the scalar
//     chunked psum reduction exactly — same chunk seams as
//     core.VDPC.DotLarge, the same keyed core.ADC conversion — so Dot
//     results are bit-identical, not just statistically close (pinned
//     by an exhaustive operand sweep over every (input, weight, sign)
//     at B 1..8, by engine-vs-scalar traces across chunk seams at every
//     precision New accepts, and by cross-engine property tests on full
//     network forwards under -race).
//
//   - Serving integration: sckernel.Engine implements quant.DotEngine
//     and the layer-tile quant.TileDotter boundary. DotTile range-checks
//     and digests (core.VecKey) each weight vector and each operand row
//     of a tile once, then runs a register-tiled kernel on the analytic
//     count, chosen per tile from what the code can observe: the CPU,
//     B, N and the tile's own operands. On amd64 with AVX2, a tile with
//     B <= 8, every lane below 2^B, psum chunk sums below 2^16 and at
//     least four rows — every tile a served model produces — runs a
//     SIMD kernel: rows packed 16 per YMM register as uint16 lanes
//     x<<(16-B), so one VPMULHUW by a broadcast weight magnitude gives
//     16 rows' exact counts. Every other tile runs the portable kernel:
//     rows packed lane-major, three per uint64 in 21-bit fields (two
//     32-bit fields, or one, when 2B+1 > 21 or N*2^B >= 2^21), so one
//     multiply per (lane, weight) gives three rows' products and a shift
//     and a mask keep each lane's floor. In both the weight's sign mask
//     steers a count into the negative sum, each weight pair passes once
//     over a row group, and the counts go into one conversion loop over
//     the stateless keyed ADC — bit-identical to the per-(row, DKV) Dot
//     loop in any order, ADC error included. No flag or setting picks
//     the kernel. It is the one SC engine in production:
//     sconnaserve -engine sconna, Table V, the examples and the facade's
//     SconnaDotEngineFactory all build it, configured like the scalar
//     factory, so replay stays bit-identical at any pool size.
//
//   - Fuzz tier: internal/bitstream carries native Go fuzz targets
//     (round-trip parsing, AndPopCount vs a naive oracle, tail-mask
//     invariants) with checked-in seed corpora, and
//     internal/sckernel's FuzzDotTile checks DotTile against the Dot
//     loop on decoded precisions, VDPE sizes, shapes and operands
//     (full-scale and out-of-range lanes among its seeds); CI runs a
//     short fuzz smoke of each on every change.
//
// cmd/benchsc emits the SC-kernel trajectory (BENCH_sc.json, schema
// repro/bench_sc@v2) and gates CI on the packed-vs-scalar dot speedup —
// ≥10x at the stream-scaling shape (12-bit streams, where the O(1)
// closed-form count per lane meets the scalar O(2^B/64) stream walk)
// and ≥3x at the 8-bit paper point.
//
// # Serving plane
//
// internal/serve (fronted by cmd/sconnaserve) turns the one-shot
// quantized evaluation machinery into a long-lived inference service:
//
//   - Engine pool lifecycle: a Pool owns N engines built once at
//     startup (engine i = factory(i)), each paired with a private
//     quant.BatchScratch. Engines are checked out per micro-batch and
//     returned after it — the serving-time form of the engine-per-shard
//     ownership rule: an engine and its scratch belong to exactly one
//     goroutine between Get and Put.
//
//   - Batching semantics: classify requests enter a bounded queue
//     (admissions are atomic per group and ordered — arrival order, seq
//     assignment and queue order agree); the dispatcher takes one
//     request, greedily drains whatever else is pending and optionally
//     waits up to MaxWait for the batch to fill, then a worker runs the
//     batch through quant.(*Network).ForwardBatch on a pooled engine.
//     Each conv layer runs example by example: one operand block per
//     example, bounded by one example rather than the batch, and one
//     quant.TileDotter DotTile call against every weight row (one per
//     channel for a depthwise conv; the exact engine runs it as a
//     register-tiled integer GEMM). A dense layer is one tile over the
//     whole batch. Engines without the capability get the same operands
//     as one Dot per (row, weight row). A full queue rejects instead of
//     buffering (ErrOverloaded, HTTP 429 with Retry-After); requests
//     whose context ends while queued are skipped, not computed.
//
//   - Determinism contract: there is one serving mode. Engines are pure
//     functions of their operands and ForwardBatch hands each example
//     its ForwardNaive operands, so every response is a pure function
//     of (network, input) — bit-identical when a recorded trace
//     replays, at any pool size, pool slot and batching (pinned by
//     replay tests at both the Result and the HTTP-byte level).
//     Register walks the network over the served input shape and
//     refuses a mis-chained artifact with an error.
//
//   - Operations: serve.Registry's Handler is the one HTTP surface, and
//     a single model is a one-entry registry; sconnaserve,
//     examples/serving and bench/ all serve it. Classify routes accept
//     single, batched, base64 and raw binary (octet-stream float32)
//     bodies; GET /healthz flips to 503 once draining; each model's
//     stats (GET /v1/models/{name}/stats and its /stats section) report
//     queue depth, a batch-size histogram, latency quantiles
//     (p50/p90/p99/p999) with the full log2 bucket list, and
//     engine-pool utilization. /stats and /metrics render from one
//     snapshot, and the served count is the latency histogram's count,
//     so the two never disagree. Shutdown
//     drains gracefully: admissions stop, the backlog finishes, workers
//     exit. Classify bodies are bounded by queue capacity times input
//     size (413 past it), and non-finite inputs are 400s. Served
//     throughput and latency are measured end to end by the repository
//     benchmark in bench/ (four workloads, including the sconna-packed
//     engine at the paper's 8-bit point); go test holds the behaviour.
//
// # Model registry
//
// SCONNA is evaluated across six integer-quantized CNNs time-sharing
// one accelerator, so the serving plane is multi-model: serve.Registry
// holds named, versioned quantized models, each behind its own engine
// pool, micro-batcher and stats, routed by name over one HTTP surface.
//
//   - Versioning: a model's version ID is the content digest of its
//     quantized network (quant.(*Network).Digest — schema-tagged,
//     golden-tested in internal/digest like the cache keys): every
//     value inference reads, so equal versions mean byte-identical
//     classification and a weight change is a version change.
//
//   - Artifacts: quant.(*Network).Save/SaveFile write a self-describing
//     gob artifact (layer kinds, dimensions, integer weights, scales;
//     atomic temp-file + rename) that quant.Load/LoadFile reconstruct
//     exactly — digests stable, logits bit-identical — so a server
//     boots from pre-quantized artifacts (sconnaserve -model name=path,
//     repeatable; -save-quant writes one) without retraining or
//     requantizing.
//
//   - Routing: POST /v1/models/{name}/classify reaches the named model
//     (404 for unknown names); GET /v1/models lists name, version and
//     per-model stats (as does GET /stats); the legacy POST /v1/classify
//     is an alias for the default (first-registered) model whose bodies
//     equal the routed path's and the JSON of its Submit results,
//     pinned by the alias test.
//
//   - Lifecycle: Register and Unregister are safe under live traffic —
//     an unregistered model drains gracefully (admitted work finishes,
//     then its route 404s) while the rest serve uninterrupted; DrainAll
//     stops everything. The replay contract holds independently per
//     model, so interleaved multi-model traffic replays bit-identically
//     at any pool size.
//
// # Resilience plane
//
// internal/resilience hardens the serving stack without giving up its
// determinism contract — every chaos decision is a pure function of a
// seed, so failures found under fault injection replay byte-for-byte:
//
//   - Fault injection: Middleware injects flagged HTTP 500s and stalls
//     on a seeded schedule (splitmix64 over the arrival index;
//     X-Chaos-Injected marks them), with an optional fault budget for
//     two-phase soak runs that must recover. Faults live at the HTTP
//     edge only: engines are built once per pool slot, so no fault can
//     make a response depend on which slot served it.
//
//   - Deadlines: each model applies a DefaultTimeout to requests that
//     arrive without one; expiry propagates through the queue and the
//     batcher, so an expired request is dropped before an engine is
//     checked out (HTTP 504 via ErrDeadline, distinct from a caller
//     cancel's 499), and survivors stay bit-identical.
//
//   - Retry/backoff: RetryClient retries 429s and 5xx with exponential
//     backoff and deterministic jitter, honoring Retry-After verbatim;
//     a 429's Retry-After is derived from the server's observed drain
//     rate (backlog over served-per-second, clamped to [1, 30]s). The
//     serve tests drive it against budgeted HTTP chaos and require every
//     injected fault to be recovered.
//
//   - Circuit breaking and admission: each registered model may carry a
//     breaker (closed → open → half-open over a rolling outcome window;
//     open answers 503 + Retry-After, half-open admits bounded probes)
//     and a weighted in-flight quota (Registry.SetMaxInFlight splits a
//     box-wide budget by per-model AdmissionWeight). Health degrades
//     honestly: /healthz reports ok, degraded (some breaker non-closed,
//     still HTTP 200 — the box serves what it can) or draining, and
//     /stats exposes per-model breaker state, trips and in-flight.
//
//     The serve package's soak test stalls a model's engines so its
//     requests answer deadline 504s, drives the breaker to trip and
//     recovery (the fault-phase status sequence must replay
//     identically), and CI runs it under -race.
//
// # Telemetry plane
//
// internal/telemetry makes the serving stack observable without
// disturbing what the other planes pinned — determinism, floors,
// byte-identical replays — and without a metrics dependency:
//
//   - Per-request tracing: when serve.Options.Telemetry is set, every
//     request carries a span from HTTP decode through admission, queue,
//     batch assembly, engine checkout, forward and response. Its trace
//     ID is splitmix64 of the arrival seq (telemetry.TraceID), so the
//     same recorded traffic yields the same IDs on every replay; a
//     client-stamped X-Trace-Id joins the span (the benchmark in bench/
//     stamps one per request and joins client, router, replica and
//     stage spans on it). Spans
//     land in a bounded ring; GET /debug/traces exports them as Chrome
//     trace-event JSON (one process per model, one thread row per seq)
//     for chrome://tracing or Perfetto.
//
//   - Metrics: GET /metrics serves Prometheus text exposition 0.0.4,
//     hand-rolled (no dependencies, validated by
//     telemetry.ValidateExposition and golden-tested): every existing
//     counter — serve traffic/queue/pool stats, per-stage and
//     end-to-end log2 latency histograms, registry breaker and quota
//     state, cache traffic (each runner's cache registers a named
//     collector), op-count and energy-per-inference gauges — as
//     sconna_* families, labeled model="name" under a registry.
//     GET /stats grew the full latency histogram plus p90/p999
//     alongside the existing quantiles.
//
//   - Cost discipline: telemetry off (the default) is a nil plane —
//     no time.Now calls, no allocation, and HTTP replay bytes are
//     pinned identical to the untraced server; telemetry on preserves
//     replay bit-for-bit (trace IDs derive from seqs, which tracing
//     never perturbs); its cost is the benchmark's
//     bench.trace_overhead metric. net/http/pprof mounts behind -pprof
//     (telemetry.WithPprof); the breaker soak test scrapes /metrics and a
//     heap profile mid-fault to prove the surface stays well-formed
//     with the breaker open.
//
// # Fleet plane
//
// internal/fleet distributes the serving and experiment stacks across
// machines, keeping every single-machine contract intact:
//
//   - Artifact store: quantized models travel as content-addressed
//     artifacts — the file name is the quant digest, Put is atomic and
//     idempotent, Get re-hashes the bytes so a corrupt disk or a lying
//     server can never boot a wrong model. fleet.StoreHandler serves a
//     store at GET /v1/artifacts[/{digest}]; sconnaserve -store-put
//     publishes into one, and replicas boot from it with
//     -pull name=digest (against -store-dir or a remote -store-url),
//     registering pulled models exactly as -model does. GET /v1/models
//     exports each model's artifact digest, the version the fleet plane
//     stores and pulls by.
//
//   - Router: sconnaserve -router -replica host:port,... places model
//     names on a bounded-load rendezvous ring (splitmix64 scores, 1.25x
//     fair-share load cap) — placement is a deterministic pure function
//     of the member set, pinned by golden tests, and rebalances only
//     what a join/leave forces to move. Classify traffic proxies to the
//     owning replica with deadline propagation (-request-timeout),
//     candidate-order failover, and a per-replica circuit breaker from
//     internal/resilience; responses carry X-Served-By. The model set
//     refreshes from the replicas' /v1/models; /metrics exports
//     sconna_router_* families. The router tests kill a replica: the
//     survivor must serve every request and the dead replica's breaker
//     must open. The benchmark's routed-mix workload measures the hop.
//
//   - Sharded sweeps: experiments -shard i/n (and sconnsim -all -shard
//     i/n) compute one contiguous slice of the cacheable sweeps —
//     fig9, table1, energy — into the content-addressed store and
//     print no tables. Entries are content-addressed, so the directory
//     union of N disjoint shard stores (cache.MergeDirs, or a plain
//     copy) answers the unsharded run with 100% cache hits and stdout
//     byte-identical to a single-machine run. The -shard parser,
//     fleet.ParseShard, is fuzzed in CI (FuzzParseShard): it never
//     panics, accepts only 0 <= i < n and round-trips through String.
//
// This package re-exports the paper-facing planes: functional,
// performance, scalability, accuracy and the quantized compute plane.
// Serving, resilience, telemetry and the fleet are internal packages
// driven by cmd/sconnaserve. See examples/ for walkthroughs and
// cmd/experiments for every table and figure.
package sconna
