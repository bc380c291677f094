package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. The tables below are the
// benchmark's single source of truth: BENCHMARK.json at the repository
// root must list the same names, units, directions and bounds, which
// bench_test.go checks.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (per-layer
	// metrics carry none).
	Bound float64
}

// endToEnd is what a client of the serving stack sees, measured with
// tracing off. Failures are not a metric here because they are zero on
// a healthy run; they are reported as the result's attempted/failed
// counts instead (fail_frac = failed/attempted). The timing bounds are
// as wide as allowed because the 2-vCPU box's speed drifts by 15-30%
// over minutes (see README.md).
var endToEnd = []metricDef{
	{Name: "throughput_ips", Unit: "inf/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is one metric set per repository module on the request path,
// from the traced run (see README.md for which end-to-end metric and
// workload each should move).
var perLayer = []metricDef{
	{Name: "setup.load_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.register_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.first_ms", Unit: "ms", Better: "lower"},

	{Name: "fleet.self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.reroutes", Unit: "count", Better: "lower"},
	{Name: "fleet.proxy_errors", Unit: "count", Better: "lower"},

	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.admit_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_us", Unit: "us", Better: "lower"},
	{Name: "serve.assemble_us", Unit: "us", Better: "lower"},
	{Name: "serve.checkout_us", Unit: "us", Better: "lower"},
	{Name: "serve.forward_us", Unit: "us", Better: "lower"},
	{Name: "serve.respond_us", Unit: "us", Better: "lower"},
	{Name: "serve.reply_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "inputs", Better: "higher"},

	{Name: "quant.forward_us_per_inf", Unit: "us/inf", Better: "lower"},
	{Name: "quant.lowering_us_per_inf", Unit: "us/inf", Better: "lower"},
	{Name: "quant.allocs_per_inf", Unit: "allocs/inf", Better: "lower"},
	{Name: "quant.bytes_per_inf", Unit: "B/inf", Better: "lower"},
	{Name: "quant.exec_ops_per_inf", Unit: "ops/inf", Better: "lower"},
	{Name: "quant.skipped_frac", Unit: "frac", Better: "higher"},

	{Name: "dot.calls_per_inf", Unit: "calls/inf", Better: "lower"},
	{Name: "dot.lanes_per_inf", Unit: "lanes/inf", Better: "lower"},
	{Name: "dot.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "dot.share", Unit: "frac", Better: "lower"},

	{Name: "process.allocs_per_inf", Unit: "allocs/inf", Better: "lower"},
	{Name: "process.gc_per_s", Unit: "1/s", Better: "lower"},

	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "frac", Better: "lower"},
}

// metric is one measured value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values: the smallest value with at least q of the sample at or below
// it. It returns NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return sorted[r]
}

// median sorts a copy of xs and returns its middle value (the mean of
// the two middle values for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
