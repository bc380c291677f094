package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/quant"
)

func TestMain(m *testing.M) {
	// Setup probes re-execute the running binary, which under go test is
	// the test binary.
	if spec := os.Getenv(bootEnv); spec != "" {
		if err := childBoot(spec); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "sconnabench-test-")
	if err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(1)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	fixtureDir  string
	fixtureOnce sync.Once
	fixtureVal  *fixture
	fixtureErr  error
)

// sharedFixture builds the fixture once for the whole test binary.
func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixtureOnce.Do(func() { fixtureVal, fixtureErr = buildFixture(fixtureDir, 7) })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureVal
}

// shortConfig runs a workload for about half a second.
func shortConfig(traced bool) config {
	return config{
		seed: 7, warm: 100 * time.Millisecond, measure: 500 * time.Millisecond,
		traced: traced, traceWarm: 100 * time.Millisecond, traceWindow: 300 * time.Millisecond,
		boots: 1, replayBudget: 30 * time.Millisecond,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables the
// command reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) {
				t.Errorf("metric name %q does not match %s", want[i].Name, nameRE)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestWorkloads runs every workload briefly, traced, and checks that
// each reports every metric with its unit and a finite value, loses no
// inference and answers correctly.
func TestWorkloads(t *testing.T) {
	fx := sharedFixture(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := shortConfig(true)
			cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			r, err := runWorkload(cfg, fx, w)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Errorf("wrong outputs: %v", r.Problems)
			}
			if r.Attempted == 0 || r.Failed != 0 || r.FailFrac != 0 {
				t.Errorf("attempted %d, failed %d, fail_frac %v; want no failures", r.Attempted, r.Failed, r.FailFrac)
			}
			for _, set := range []struct {
				defs []metricDef
				got  map[string]metric
			}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
				for _, d := range set.defs {
					m, ok := set.got[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v, want finite", d.Name, m.Value)
					}
				}
				if len(set.got) != len(set.defs) {
					t.Errorf("reported %d metrics, defined %d", len(set.got), len(set.defs))
				}
			}
			if w.Routed {
				checkJoinedTrace(t, cfg.traceOut)
			}
		})
	}
}

// checkJoinedTrace requires one trace ID that appears on the client's
// root span, the router and replica handler spans and the stage spans.
func checkJoinedTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string
			PID  int
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	layers := make(map[string]map[int]bool) // trace ID -> pids seen
	for _, ev := range doc.TraceEvents {
		id, _ := ev.Args["trace_id"].(string)
		if ev.Ph != "X" || id == "" {
			continue
		}
		if layers[id] == nil {
			layers[id] = make(map[int]bool)
		}
		layers[id][ev.PID] = true
	}
	for _, pids := range layers {
		if pids[1] && pids[2] && pids[3] && pids[4] {
			return
		}
	}
	t.Fatalf("no trace ID joins client, router, replica and stage spans (%d IDs seen)", len(layers))
}

// TestWrongReferenceFails corrupts one reference class: the run must
// report wrong output and the command's summary must fail.
func TestWrongReferenceFails(t *testing.T) {
	fx := sharedFixture(t)
	bad := *fx
	bad.ref = make(map[string][]int)
	for name, ref := range fx.ref {
		bad.ref[name] = append([]int(nil), ref...)
	}
	bad.ref["default"][0] = (bad.ref["default"][0] + 1) % 8
	w, err := workloadByName("batched-exact")
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig(false)
	cfg.measure = 200 * time.Millisecond
	r, err := runWorkload(cfg, &bad, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct {
		t.Fatal("a corrupted reference class went unnoticed")
	}
	if summarize([]*result{r}, false).Correct {
		t.Fatal("the summary line reports correct output")
	}
}

// TestProbeEngineIsTransparent: wrapping an engine in the counting probe
// must not change what ForwardBatch computes or which path it takes —
// bit-identical logits and identical executed op totals.
func TestProbeEngineIsTransparent(t *testing.T) {
	fx := sharedFixture(t)
	qn, err := quant.LoadFile(fx.paths["default"])
	if err != nil {
		t.Fatal(err)
	}
	xs := tensors(fx.inputs[:batch])
	for _, engine := range []string{"exact", "sconna-packed"} {
		factory, err := engineFactory(engine, qn.Bits)
		if err != nil {
			t.Fatal(err)
		}
		forward := func(wrap bool) ([][]float32, uint64, float64) {
			eng, err := factory(0)
			if err != nil {
				t.Fatal(err)
			}
			if wrap {
				p := newProbe(eng, true)
				if p.Name() != eng.Name() {
					t.Errorf("%s: probe name %q", engine, p.Name())
				}
				eng = p
			}
			s := quant.NewBatchScratch()
			rec := qn.OpRecorder()
			s.Ops = rec
			var logits [][]float32
			for _, l := range qn.ForwardBatch(xs, []quant.DotEngine{eng}, s) {
				logits = append(logits, l.Data)
			}
			prof := rec.Snapshot()
			return logits, prof.Exec().Total(), prof.SkippedFrac()
		}
		plain, plainOps, skipped := forward(false)
		wrapped, wrappedOps, _ := forward(true)
		if plainOps != wrappedOps {
			t.Errorf("%s: executed ops %d wrapped, %d plain", engine, wrappedOps, plainOps)
		}
		if engine == "exact" && skipped == 0 {
			t.Errorf("exact: fixture never takes the sparse path, so the check is vacuous")
		}
		for i := range plain {
			for j := range plain[i] {
				if math.Float32bits(plain[i][j]) != math.Float32bits(wrapped[i][j]) {
					t.Fatalf("%s: logit %d/%d differs: %v wrapped, %v plain", engine, i, j, wrapped[i][j], plain[i][j])
				}
			}
		}
	}
}
