package serve

import (
	"time"

	"repro/internal/opcount"
	"repro/internal/telemetry"
)

// Stats is a snapshot of the server's traffic counters, exposed by
// (*Server).Stats, GET /v1/models/{name}/stats and each model's section
// of the registry's GET /stats.
type Stats struct {
	// Accepted counts requests admitted to the queue; Rejected counts
	// backpressure rejections (queue full) and Draining counts requests
	// refused after Drain began. Served counts delivered results (the
	// latency histogram's count: each is observed there exactly once),
	// Cancelled requests whose (caller-owned) context ended before
	// their batch ran, and Expired requests dropped pre-dispatch by the
	// server-imposed per-model deadline (Options.DefaultTimeout).
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Draining  uint64 `json:"draining_rejected"`
	Served    uint64 `json:"served"`
	Cancelled uint64 `json:"cancelled"`
	Expired   uint64 `json:"deadline_expired"`
	// Batches counts executed micro-batches; BatchSizes[i] is how many
	// of them carried i+1 requests (the batch-size histogram).
	Batches    uint64   `json:"batches"`
	BatchSizes []uint64 `json:"batch_sizes"`
	// QueueDepth and QueueCap describe the request queue right now;
	// EnginesBusy/PoolSize describe engine-pool utilization.
	QueueDepth  int `json:"queue_depth"`
	QueueCap    int `json:"queue_cap"`
	EnginesBusy int `json:"engines_busy"`
	PoolSize    int `json:"pool_size"`
	// LatencyP50..LatencyP999 are submit-to-result quantiles (upper
	// bucket bounds of the telemetry plane's log2-microsecond
	// histogram), and LatencyBuckets is the full histogram they were
	// read from — bucket counts with their inclusive upper bounds,
	// trailing empty buckets trimmed — so dashboards are not limited to
	// the precomputed quantiles.
	LatencyP50     time.Duration   `json:"latency_p50_ns"`
	LatencyP90     time.Duration   `json:"latency_p90_ns"`
	LatencyP99     time.Duration   `json:"latency_p99_ns"`
	LatencyP999    time.Duration   `json:"latency_p999_ns"`
	LatencyBuckets []LatencyBucket `json:"latency_buckets,omitempty"`
	// Ops is the op/energy accounting summary, present only when the
	// server was built with Options.OpAccounting.
	Ops *OpStats `json:"ops,omitempty"`

	// lat is the latency snapshot Served and the quantiles were read
	// from; /metrics renders the latency histogram from it.
	lat telemetry.HistSnapshot
}

// OpStats summarizes the server's op/energy accounting plane: arithmetic
// and memory-traffic totals for the work actually executed (Exec) next
// to what a dense lowering would have cost (Dense), plus per-inference
// energy under the repo's electronic and SCONNA models.
type OpStats struct {
	Inferences uint64         `json:"inferences"`
	Dense      opcount.Counts `json:"dense"`
	Exec       opcount.Counts `json:"exec"`
	// SkippedFrac is the fraction of dense ops elided by zero skipping.
	SkippedFrac float64 `json:"skipped_frac"`
	// Per-inference energy in microjoules: the electronic model priced at
	// the dense and executed op counts, and the SCONNA model at executed.
	ElectronicDenseUJ float64 `json:"electronic_dense_uj_per_inf"`
	ElectronicUJ      float64 `json:"electronic_uj_per_inf"`
	SconnaUJ          float64 `json:"sconna_uj_per_inf"`
}

// summarizeOps folds a recorder snapshot into the /stats summary.
func summarizeOps(p opcount.Profile) *OpStats {
	dense, exec := p.Dense(), p.Exec()
	o := &OpStats{
		Inferences:  p.Inferences,
		Dense:       dense,
		Exec:        exec,
		SkippedFrac: p.SkippedFrac(),
	}
	if p.Inferences > 0 {
		n := float64(p.Inferences)
		o.ElectronicDenseUJ = opcount.Electronic().UJ(dense) / n
		o.ElectronicUJ = opcount.Electronic().UJ(exec) / n
		o.SconnaUJ = opcount.Sconna().UJ(exec) / n
	}
	return o
}

// LatencyBucket is one exported bucket of the submit-to-result log2
// latency histogram: Count observations at or under LeNS (and above
// the previous bucket's bound). The bucketing lives in
// internal/telemetry (telemetry.Histogram), shared with the per-stage
// histograms; this is its JSON-facing form.
type LatencyBucket struct {
	LeNS  time.Duration `json:"le_ns"`
	Count uint64        `json:"count"`
}

// latencyBuckets renders a histogram snapshot for /stats, trimming the
// trailing run of empty buckets (the document stays small while every
// populated bucket is visible).
func latencyBuckets(snap telemetry.HistSnapshot) []LatencyBucket {
	last := -1
	for i, n := range snap.Buckets {
		if n > 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]LatencyBucket, last+1)
	for i := 0; i <= last; i++ {
		out[i] = LatencyBucket{LeNS: telemetry.BucketUpper(i), Count: snap.Buckets[i]}
	}
	return out
}
