package sconna

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestVersionSet(t *testing.T) {
	if Version == "" {
		t.Fatal("version unset")
	}
}

func TestFacadeCoreRoundTrip(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.N = 8
	cfg.IdealADC = true
	vdpe, err := NewVDPE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vdpe.Dot([]int{100, 200}, []int{50, -60})
	if err != nil {
		t.Fatal(err)
	}
	exact := 100*50 - 200*60
	if math.Abs(float64(res.Est-exact)) > 2*256 {
		t.Fatalf("est=%d exact=%d", res.Est, exact)
	}
	vdpc, err := NewVDPC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vdpc.M() != cfg.M {
		t.Fatal("facade VDPC broken")
	}
}

func TestFacadeAccelerators(t *testing.T) {
	if SconnaAccel().Name != "SCONNA" {
		t.Fatal("SconnaAccel broken")
	}
	if MAMAccel().N != 22 || AMMAccel().N != 16 {
		t.Fatal("baseline configs broken")
	}
	ms := EvaluatedModels()
	if len(ms) != 4 {
		t.Fatal("evaluated models broken")
	}
	r, err := Simulate(SconnaAccel(), ms[3]) // ShuffleNet: fastest
	if err != nil {
		t.Fatal(err)
	}
	if r.FPS <= 0 {
		t.Fatal("simulate broken")
	}
}

func TestFacadeTableI(t *testing.T) {
	cells := TableI()
	if len(cells) != 16 {
		t.Fatalf("TableI cells=%d", len(cells))
	}
	s := SolveSconnaN(30e9)
	if s.PaperN != 176 {
		t.Fatal("paper N constant wrong")
	}
}

func TestFacadeFig7Sweeps(t *testing.T) {
	pts := Fig7a(-28, []float64{0.2, 0.8})
	if len(pts) != 2 || pts[1].BitrateHz <= pts[0].BitrateHz {
		t.Fatal("Fig7a sweep broken")
	}
	alpha := Fig7b(10)
	if len(alpha) != 11 || alpha[10].VoltageV <= alpha[1].VoltageV {
		t.Fatal("Fig7b sweep broken")
	}
}

func TestFacadeTableIIModels(t *testing.T) {
	ms := TableIIModels()
	if len(ms) != 4 {
		t.Fatal("TableIIModels broken")
	}
	for _, m := range ms {
		if _, gt := m.KernelCensus(44); gt == 0 {
			t.Fatalf("%s census empty", m.Name)
		}
	}
}

func TestFacadeAccuracyOptions(t *testing.T) {
	full := DefaultAccuracyOptions()
	quick := QuickAccuracyOptions()
	if quick.TrainExamples >= full.TrainExamples {
		t.Fatal("quick options should be smaller")
	}
	if full.Bits != 8 || full.VDPESize != 176 {
		t.Fatal("full options disagree with paper operating point")
	}
}

func TestFacadeRunFig9(t *testing.T) {
	data, err := RunFig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"MAM (HOLYLIGHT)", "AMM (DEAPCNN)"} {
		if data.GmeanFPS[base] <= 1 {
			t.Fatalf("SCONNA should beat %s on FPS gmean", base)
		}
	}
}

func TestFacadeModelRegistry(t *testing.T) {
	src := nn.BuildSmallCNN(2, 4, 9)
	qn, err := QuantizeNetwork(src, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Artifact round trip through the facade loader.
	var buf bytes.Buffer
	if err := qn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQuantNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != qn.Digest() {
		t.Fatal("facade artifact round trip moved the digest")
	}

	reg := NewModelRegistry()
	defer reg.DrainAll(context.Background())
	shape := []int{1, 16, 16}
	m, err := reg.Register(DefaultModelName, loaded, SharedDotEngine(ExactDotEngine{}), ServeOptions{InputShape: shape})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version() != qn.Digest().String() {
		t.Fatal("registry version is not the quantized network digest")
	}
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(i%7) / 7
	}
	res, err := m.Server().Submit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if want := qn.Forward(x, ExactDotEngine{}).ArgMax(); res.Class != want {
		t.Fatalf("registry classified %d, want %d", res.Class, want)
	}
	if def, err := reg.Default(); err != nil || def.Name() != DefaultModelName {
		t.Fatalf("default = %v, %v", def, err)
	}
}

func TestFacadeRunners(t *testing.T) {
	arun, err := NewAccelRunner(AccelRunnerOptions{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []AccelJob{
		{Cfg: SconnaAccel(), Model: EvaluatedModels()[3]},
		{Cfg: SconnaAccel(), Model: EvaluatedModels()[3]}, // duplicate: computes once
	}
	results, err := arun.SimulateAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].FPS != results[1].FPS {
		t.Fatal("duplicate jobs diverged")
	}
	if s := arun.Stats(); s.Misses != 1 || s.Hits() != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit", s)
	}

	srun, err := NewScalabilityRunner(DefaultScalabilityConfig(), ScalabilityRunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cells := srun.TableI(); len(cells) != 16 {
		t.Fatalf("runner TableI cells=%d", len(cells))
	}
}

func TestFacadeResilience(t *testing.T) {
	// HTTP chaos + retrying client: every budgeted injected 500 is
	// flagged and recovered within the retry budget.
	var served int
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		w.WriteHeader(http.StatusOK)
	})
	hs := httptest.NewServer(ChaosMiddleware(inner, HTTPChaosOptions{Seed: 9, ErrorRate: 1, FaultBudget: 2}))
	defer hs.Close()
	client := RetryClient{HTTP: hs.Client(), Opts: RetryOptions{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	resp, err := client.Post(hs.URL, "application/json", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || served == 0 {
		t.Fatalf("retry client got %d (handler served %d)", resp.StatusCode, served)
	}
	if client.Retries() == 0 {
		t.Fatal("retry client recovered a full-rate fault budget without retrying")
	}

	// Breaker config and stats travel through the facade types.
	src := nn.BuildSmallCNN(2, 4, 9)
	qn, err := QuantizeNetwork(src, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewModelRegistry()
	defer reg.DrainAll(context.Background())
	if _, err := reg.Register(DefaultModelName, qn, SharedDotEngine(ExactDotEngine{}), ServeOptions{
		InputShape: []int{1, 16, 16},
		Breaker:    &BreakerOptions{Window: 8},
	}); err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if len(st.Models) != 1 || st.Models[0].Breaker == nil {
		t.Fatalf("breaker stats missing from registry stats: %+v", st.Models)
	}
	var bs BreakerStats = *st.Models[0].Breaker
	if bs.State != "closed" {
		t.Fatalf("fresh breaker state = %q, want closed", bs.State)
	}
	if st.Health != "ok" {
		t.Fatalf("health = %q, want ok", st.Health)
	}
}
