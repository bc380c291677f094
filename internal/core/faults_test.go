package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestFaultKindString(t *testing.T) {
	if StuckDark.String() != "stuck-dark" || StuckLit.String() != "stuck-lit" {
		t.Fatal("fault names broken")
	}
	if FaultKind(9).String() != "?" {
		t.Fatal("unknown fault")
	}
}

func TestInjectFaultsValidation(t *testing.T) {
	cfg := smallConfig()
	v, _ := NewVDPE(cfg)
	if _, err := v.InjectFaults(Fault{Lane: 99}); err == nil {
		t.Fatal("expected out-of-range lane error")
	}
	if _, err := v.InjectFaults(Fault{Lane: -1}); err == nil {
		t.Fatal("expected negative lane error")
	}
}

// The SC error-tolerance claim (Sec. II-D): a single stuck lane perturbs
// the result by at most one full stream — 2^B * 2^B product units —
// regardless of which lane fails, while a binary accumulator's worst
// single-bit error is N times larger.
func TestSingleLaneFaultBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.IdealADC = true
	v, err := NewVDPE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 << uint(cfg.Bits)
	rng := rand.New(rand.NewSource(21))
	div := make([]int, cfg.N)
	dkv := make([]int, cfg.N)
	for i := range div {
		div[i] = rng.Intn(scale + 1)
		dkv[i] = rng.Intn(2*scale+1) - scale
	}
	clean, err := v.Dot(div, dkv)
	if err != nil {
		t.Fatal(err)
	}
	bound := v.WorstCaseLaneError()
	for lane := 0; lane < cfg.N; lane++ {
		for _, kind := range []FaultKind{StuckDark, StuckLit} {
			fv, err := v.InjectFaults(Fault{Lane: lane, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fv.Dot(div, dkv)
			if err != nil {
				t.Fatal(err)
			}
			if diff := abs(res.Est - clean.Est); diff > bound {
				t.Fatalf("lane %d %v: error %d exceeds bound %d", lane, kind, diff, bound)
			}
		}
	}
	// The bound is tight: a stuck-lit lane whose fault-free product is
	// zero injects exactly one full stream.
	zeros := make([]int, cfg.N)
	fv, err := v.InjectFaults(Fault{Lane: 2, Kind: StuckLit})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fv.Dot(zeros, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if res.Est != bound || res.Exact != bound {
		t.Fatalf("stuck-lit on a dark lane: est %d exact %d, want exactly the bound %d", res.Est, res.Exact, bound)
	}
	// Contrast: binary positional encoding's worst bit error is N/2 to N
	// times the stochastic bound.
	if v.BinaryWorstCaseBitError() < bound*cfg.N/2 {
		t.Fatalf("binary worst-case %d should dwarf stochastic bound %d",
			v.BinaryWorstCaseBitError(), bound)
	}
}

// Errors accumulate linearly (not catastrophically) with the number of
// faulty lanes.
func TestMultiLaneFaultLinearGrowth(t *testing.T) {
	cfg := smallConfig()
	cfg.IdealADC = true
	v, _ := NewVDPE(cfg)
	scale := 1 << uint(cfg.Bits)
	rng := rand.New(rand.NewSource(22))
	div := make([]int, cfg.N)
	dkv := make([]int, cfg.N)
	for i := range div {
		div[i] = rng.Intn(scale + 1)
		dkv[i] = rng.Intn(2*scale+1) - scale
	}
	clean, _ := v.Dot(div, dkv)
	for k := 1; k <= 4; k++ {
		faults := make([]Fault, k)
		for i := range faults {
			faults[i] = Fault{Lane: i, Kind: StuckLit}
		}
		fv, _ := v.InjectFaults(faults...)
		res, _ := fv.Dot(div, dkv)
		if diff := abs(res.Est - clean.Est); diff > k*v.WorstCaseLaneError() {
			t.Fatalf("%d faults: error %d exceeds %d", k, diff, k*v.WorstCaseLaneError())
		}
	}
}

// A stuck-dark lane on a zero-weight position is invisible.
func TestStuckDarkOnZeroWeightHarmless(t *testing.T) {
	cfg := smallConfig()
	cfg.IdealADC = true
	v, _ := NewVDPE(cfg)
	div := []int{10, 20, 30}
	dkv := []int{5, 0, 7}
	clean, _ := v.Dot(div, dkv)
	fv, _ := v.InjectFaults(Fault{Lane: 1, Kind: StuckDark})
	res, _ := fv.Dot(div, dkv)
	if res.Est != clean.Est {
		t.Fatalf("stuck-dark on zero product changed result: %d vs %d", res.Est, clean.Est)
	}
}

func TestFaultyDotValidation(t *testing.T) {
	v, _ := NewVDPE(smallConfig())
	fv, _ := v.InjectFaults()
	if _, err := fv.Dot([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("expected mismatch error")
	}
	long := make([]int, 99)
	if _, err := fv.Dot(long, long); err == nil {
		t.Fatal("expected oversize error")
	}
	if _, err := fv.Dot([]int{-4}, []int{1}); err == nil {
		t.Fatal("expected range error")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var _ = math.Abs
