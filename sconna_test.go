package sconna

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/nn"
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
