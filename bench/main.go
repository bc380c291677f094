// Command sconnabench is the repository's benchmark: it trains and
// quantizes the served CNN, boots the serving stack (quant artifacts →
// serve registry → loopback HTTP, with a fleet router in front where the
// workload asks for one) through the repository's public APIs, drives it
// with its own load generator, checks every answer against an offline
// exact-engine reference, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. The exit status is non-zero when any answer is wrong.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-trace-out FILE]
//
// or from bench/: go run . [flags]. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/quant"
)

// scAgreementFloor is the least share of batched-sc answers that must
// equal the exact engine's class. The noisy 8-bit SC engine agreed on
// 89.2-91.7% of answers over 40 seeds; the floor sits 3 points below
// the lowest.
const scAgreementFloor = 0.86

// config is one invocation's settings.
type config struct {
	seed int64
	// warm precedes the measured window of length measure.
	warm, measure time.Duration
	// traced adds the traced run, the quant/dot replay and the per-layer
	// metrics.
	traced                 bool
	traceWarm, traceWindow time.Duration
	// boots is how many fresh-process boots setup_s is the median of.
	boots int
	// replayBudget bounds each timed loop of the quant/dot replay.
	replayBudget time.Duration
	// traceOut, when set, receives the traced run's Chrome trace.
	traceOut string
}

// tail reports latency percentiles beyond p95 with the sample counts
// they rest on; they are recorded but not gated.
type tail struct {
	Samples    int     `json:"samples"`
	P99MS      float64 `json:"p99_ms"`
	P99Beyond  int     `json:"p99_beyond"`
	P999MS     float64 `json:"p999_ms"`
	P999Beyond int     `json:"p999_beyond"`
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// FailFrac is inferences lost (transport error, non-200 status or
	// wrong result count) over inferences attempted.
	FailFrac    float64           `json:"fail_frac"`
	Tail        tail              `json:"tail"`
	SCAgreement float64           `json:"sc_agreement,omitempty"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
}

func main() {
	if spec := os.Getenv(bootEnv); spec != "" {
		if err := childBoot(spec); err != nil {
			fmt.Fprintln(os.Stderr, "sconnabench boot probe:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sconnabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all of them in turn)")
	seed := fs.Int64("seed", 7, "seed the inputs and the model mix are generated from")
	seconds := fs.Float64("seconds", 25, "length of each measured window, in seconds")
	trace := fs.Int("trace", 1, "1 adds the traced run and prints per-layer metrics; 0 prints end-to-end metrics only")
	out := fs.String("out", "", "write the results, stamped with the environment, to this JSON file")
	traceOut := fs.String("trace-out", "", "write the traced run's Chrome trace JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sconnabench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !(*seconds > 0 && *seconds <= 600) {
		fmt.Fprintf(stderr, "sconnabench: -seconds %v out of range (0, 600]\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "sconnabench: -trace %d, want 0 or 1\n", *trace)
		return 2
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "sconnabench:", err)
			return 2
		}
		todo = []*workload{w}
	}
	cfg := config{
		seed: *seed, warm: 2 * time.Second, measure: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, traceWarm: time.Second, traceWindow: 5 * time.Second,
		boots: 21, replayBudget: 600 * time.Millisecond, traceOut: *traceOut,
	}

	env := stampEnv(cfg)
	line, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", line)

	dir, err := os.MkdirTemp("", "sconnabench-")
	if err != nil {
		fmt.Fprintln(stderr, "sconnabench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	fx, err := buildFixture(dir, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "sconnabench: building fixture:", err)
		return 1
	}
	var results []*result
	for _, w := range todo {
		c := cfg
		if c.traceOut != "" && len(todo) > 1 {
			ext := filepath.Ext(c.traceOut)
			c.traceOut = strings.TrimSuffix(c.traceOut, ext) + "." + w.Name + ext
		}
		r, err := runWorkload(c, fx, w)
		if err != nil {
			fmt.Fprintf(stderr, "sconnabench: %s: %v\n", w.Name, err)
			return 1
		}
		printResult(stdout, w, r, cfg)
		results = append(results, r)
	}
	if *out != "" {
		if err := writeResults(*out, env, results); err != nil {
			fmt.Fprintln(stderr, "sconnabench:", err)
			return 1
		}
	}
	summary := summarize(results, cfg.traced)
	line, _ = json.Marshal(summary)
	fmt.Fprintf(stdout, "%s\n", line)
	if !summary.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload: setup in fresh processes, the
// untraced load run, the output checks, and with cfg.traced the traced
// run and the quant/dot replay.
func runWorkload(cfg config, fx *fixture, w *workload) (*result, error) {
	setup, err := measureSetup(w, fx.paths, cfg.seed, cfg.boots)
	if err != nil {
		return nil, err
	}
	st, _, err := boot(w, fx.paths, fx.inputs[0], false, nil)
	if err != nil {
		return nil, err
	}
	servedBefore := st.served(w)
	plan, err := newLoadPlan(w, fx, cfg.seed, st.url, cfg.warm, cfg.measure)
	if err != nil {
		st.close()
		return nil, err
	}
	origin := time.Now()
	memc := make(chan memWindow, 1)
	go func() { memc <- sampleMemory(origin.Add(cfg.warm), origin.Add(cfg.warm+cfg.measure)) }()
	lr := plan.run(origin)
	mem := <-memc
	servedAfter := st.served(w)
	if err := st.close(); err != nil {
		return nil, err
	}

	r := &result{Workload: w.Name, Correct: true, EndToEnd: make(map[string]metric)}
	wd := lr.measured(cfg.warm, cfg.measure)
	r.Attempted, r.Failed = wd.attempted, wd.failed
	if wd.attempted > 0 {
		r.FailFrac = float64(wd.failed) / float64(wd.attempted)
	}
	r.check(w, cfg.seed, lr, servedBefore, servedAfter)

	e2e := map[string]float64{
		"throughput_ips": wd.throughput,
		"p50_ms":         wd.p50,
		"p95_ms":         wd.p95,
		"heap_peak_mb":   float64(mem.peakHeap) / 1e6,
		"setup_s":        setup.SetupS,
	}
	for _, d := range endToEnd {
		r.EndToEnd[d.Name] = metric{Value: e2e[d.Name], Unit: d.Unit}
	}
	r.Tail = tail{Samples: len(wd.lat), P99MS: quantile(wd.lat, 0.99), P999MS: quantile(wd.lat, 0.999)}
	r.Tail.P99Beyond = beyond(wd.lat, r.Tail.P99MS)
	r.Tail.P999Beyond = beyond(wd.lat, r.Tail.P999MS)
	if !cfg.traced {
		return r, nil
	}

	tr, err := tracedRun(w, fx, cfg.seed, cfg.traceWarm, cfg.traceWindow)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, tr.joined); err != nil {
			return nil, err
		}
	}
	qn, err := quant.LoadFile(fx.paths[w.Models[0]])
	if err != nil {
		return nil, err
	}
	factory, err := engineFactory(w.Engine, qn.Bits)
	if err != nil {
		return nil, err
	}
	layer, err := replayQuant(qn, factory, fx.inputs, cfg.replayBudget)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for k, v := range tr.layer {
		layer[k] = v
	}
	layer["setup.load_ms"] = setup.LoadMS
	layer["setup.register_ms"] = setup.RegisterMS
	layer["setup.first_ms"] = setup.FirstMS
	served := float64(max(wd.attempted-wd.failed, 1))
	layer["process.allocs_per_inf"] = float64(mem.mallocs) / served
	layer["process.gc_per_s"] = float64(mem.numGC) / mem.seconds
	layer["bench.gen_lag_p99_ms"] = quantile(wd.lags, 0.99)
	if w.Open {
		layer["bench.trace_overhead"] = 1 - r.EndToEnd["p50_ms"].Value/tr.p50
	} else {
		layer["bench.trace_overhead"] = 1 - tr.throughput/wd.throughput
	}
	r.PerLayer = make(map[string]metric)
	for _, d := range perLayer {
		r.PerLayer[d.Name] = metric{Value: layer[d.Name], Unit: d.Unit}
	}
	return r, nil
}

// check records every wrong output. On an exact engine each class must
// equal the offline reference for the model the POST addressed; on the
// SC engine agreement with it must reach scAgreementFloor. On every
// workload each model must have served exactly the inferences of the
// POSTs the seed routed to it.
func (r *result) check(w *workload, seed int64, lr *loadResult, before, after []uint64) {
	fail := func(format string, args ...any) {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
	if lr.wrong > 0 {
		fail("%d answers differ from the exact-engine reference", lr.wrong)
	}
	if w.Engine != "exact" {
		if lr.compared == 0 {
			fail("no answers to compare with the reference")
		} else {
			r.SCAgreement = float64(lr.agree) / float64(lr.compared)
			if r.SCAgreement < scAgreementFloor {
				fail("SC agreement %.4f below the floor %.3f", r.SCAgreement, scAgreementFloor)
			}
		}
	}
	want := make([]uint64, len(w.Models))
	for i := range lr.recs {
		want[w.pick(seed, i)] += uint64(w.perPost())
	}
	for m, name := range w.Models {
		if got := after[m] - before[m]; got != want[m] {
			fail("model %q served %d inferences, the seeded mix sent it %d", name, got, want[m])
		}
	}
}

// served reads each model's served-inference counter.
func (st *stack) served(w *workload) []uint64 {
	out := make([]uint64, len(w.Models))
	for i, name := range w.Models {
		if m, err := st.reg.Get(name); err == nil {
			out[i] = m.Server().Stats().Served
		}
	}
	return out
}

// beyond counts the sorted samples strictly greater than v.
func beyond(sorted []float64, v float64) int {
	n := 0
	for i := len(sorted) - 1; i >= 0 && sorted[i] > v; i-- {
		n++
	}
	return n
}

// memWindow is the process's memory behaviour over the measured window.
type memWindow struct {
	peakHeap       uint64 // highest HeapInuse sampled, bytes
	mallocs, numGC uint64
	seconds        float64
}

// sampleMemory samples HeapInuse every 100 ms over [from, to] and
// returns the peak with the allocation and GC counts across the window.
func sampleMemory(from, to time.Time) memWindow {
	time.Sleep(time.Until(from))
	var m0, m runtime.MemStats
	runtime.ReadMemStats(&m0)
	mw := memWindow{peakHeap: m0.HeapInuse}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for time.Now().Before(to) {
		<-tick.C
		runtime.ReadMemStats(&m)
		mw.peakHeap = max(mw.peakHeap, m.HeapInuse)
	}
	mw.mallocs = m.Mallocs - m0.Mallocs
	mw.numGC = uint64(m.NumGC - m0.NumGC)
	mw.seconds = time.Since(from).Seconds()
	return mw
}

// envStamp records where and how a result was measured.
type envStamp struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	MeasureS   float64 `json:"measure_s"`
	TraceS     float64 `json:"trace_s,omitempty"`
}

func stampEnv(cfg config) envStamp {
	e := envStamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: cpuModel(), Seed: cfg.seed,
		WarmupS: cfg.warm.Seconds(), MeasureS: cfg.measure.Seconds(),
	}
	if cfg.traced {
		e.TraceS = cfg.traceWindow.Seconds()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

var cpuModelRE = regexp.MustCompile(`(?m)^model name\s*:\s*(.+)$`)

// cpuModel reads the CPU model from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	if m := cpuModelRE.FindSubmatch(b); m != nil {
		return strings.TrimSpace(string(m[1]))
	}
	return "unknown"
}

func printResult(w io.Writer, wl *workload, r *result, cfg config) {
	fmt.Fprintf(w, "== %s (engine %s, seed %d, warm-up %v, measured %v)\n", wl.Name, wl.Engine, cfg.seed, cfg.warm, cfg.measure)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g frac (%d of %d inferences lost)\n", "fail_frac", r.FailFrac, r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-28s %14.6g ms (%d samples, %d beyond)\n", "p99_ms", r.Tail.P99MS, r.Tail.Samples, r.Tail.P99Beyond)
	fmt.Fprintf(w, "  %-28s %14.6g ms (%d samples, %d beyond)\n", "p999_ms", r.Tail.P999MS, r.Tail.Samples, r.Tail.P999Beyond)
	if wl.Engine != "exact" {
		fmt.Fprintf(w, "  %-28s %14.6g frac (floor %.3f)\n", "sc_agreement", r.SCAgreement, scAgreementFloor)
	}
	for _, d := range perLayer {
		if m, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, m.Value, d.Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  WRONG: %s\n", p)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds the results into the last output line. With one
// workload the metrics keep their names; with several each name is
// prefixed by its workload.
func summarize(results []*result, traced bool) summary {
	s := summary{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		ms := r.EndToEnd
		if traced {
			ms = r.PerLayer
		}
		for name, m := range ms {
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			s.Metrics[name] = m
		}
	}
	return s
}

func writeResults(path string, env envStamp, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Env       envStamp  `json:"env"`
		Workloads []*result `json:"workloads"`
	}{env, results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
