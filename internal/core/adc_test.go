package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestADCStatistics pins the converter model over 4*10^5 keyed
// conversions (two chunks per row, each converting a count on one PCA):
// the relative error has mean ~0 and MAPE ~ADCMAPEPct. The tolerances
// are five standard errors of each estimator for n draws of the
// Gaussian realizing the MAPE; the counts are large enough that integer
// rounding moves neither statistic.
func TestADCStatistics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ADCSeed = 7
	a := NewADC(cfg)
	const rows = 200000
	const count = 1 << 20
	var sum, sumAbs float64
	for k := uint64(0); k < rows; k++ {
		a.Start(k)
		pos := a.Convert(count, 0, 1)  // chunk 0: the positive PCA's draw
		neg := -a.Convert(0, count, 1) // chunk 1: the negative PCA's draw
		for _, est := range []int{pos, neg} {
			rel := float64(est-count) / count
			sum += rel
			sumAbs += math.Abs(rel)
		}
	}
	n := float64(2 * rows)
	mape := cfg.ADCMAPEPct / 100
	sigma := mape * math.Sqrt(math.Pi/2)
	mean, meanAbs := sum/n, sumAbs/n
	if tol := 5 * sigma / math.Sqrt(n); math.Abs(mean) > tol {
		t.Fatalf("mean relative error %.3g, want |.| <= %.3g", mean, tol)
	}
	if tol := 5 * sigma * math.Sqrt(1-2/math.Pi) / math.Sqrt(n); math.Abs(meanAbs-mape) > tol {
		t.Fatalf("MAPE %.5f, want %.5f +- %.2g", meanAbs, mape, tol)
	}
}

// TestADCKeyed: a conversion is a pure function of (seed, row key,
// chunk index, counts) — restarting a row replays it, other keys and
// other seeds draw differently, and an ideal converter passes the exact
// count through.
func TestADCKeyed(t *testing.T) {
	cfg := DefaultConfig()
	a, b := NewADC(cfg), NewADC(cfg)
	row := func(a *ADC, key uint64) [3]int {
		a.Start(key)
		return [3]int{a.Convert(5000, 3000, 4), a.Convert(7000, 100, 4), a.Convert(1, 9000, 4)}
	}
	first := row(a, 42)
	row(a, 43)
	if again := row(a, 42); again != first {
		t.Fatalf("restarted row %v, first %v", again, first)
	}
	if other := row(b, 42); other != first {
		t.Fatalf("second converter %v, first %v", other, first)
	}
	if row(a, 43) == first {
		t.Fatal("keys 42 and 43 drew identical noise")
	}
	cfg.ADCSeed++
	if row(NewADC(cfg), 42) == first {
		t.Fatal("two ADC seeds drew identical noise")
	}
	cfg.IdealADC = true
	if got := row(NewADC(cfg), 42); got != [3]int{8000, 27600, -35996} {
		t.Fatalf("ideal converter %v", got)
	}
}

// TestFaultFreeFaultyVDPEMatchesVDPE: a FaultyVDPE with no faults
// converts through the VDPE's own keyed ADC, so it equals the VDPE on
// the same operands (it used to truncate where the VDPE rounds).
func TestFaultFreeFaultyVDPEMatchesVDPE(t *testing.T) {
	cfg := smallConfig()
	v, err := NewVDPE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := v.InjectFaults()
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 << uint(cfg.Bits)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(cfg.N)
		div, dkv := make([]int, k), make([]int, k)
		for i := range div {
			div[i] = rng.Intn(scale + 1)
			dkv[i] = rng.Intn(2*scale+1) - scale
		}
		want, err := v.Dot(div, dkv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fv.Dot(div, dkv)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: FaultyVDPE %+v, VDPE %+v", trial, got, want)
		}
	}
}

// TestDotLargeIndependentOfMAndOrder: a VDPC's noisy result depends on
// the operands only — not on M, on which VDPE ran a chunk, or on what
// ran before — and a one-chunk vector converts exactly as VDPE.Dot.
func TestDotLargeIndependentOfMAndOrder(t *testing.T) {
	cfg := smallConfig()
	scale := 1 << uint(cfg.Bits)
	rng := rand.New(rand.NewSource(32))
	vec := func(s int) ([]int, []int) {
		in, k := make([]int, s), make([]int, s)
		for i := range in {
			in[i] = rng.Intn(scale + 1)
			k[i] = rng.Intn(2*scale+1) - scale
		}
		return in, k
	}
	var cores []*VDPC
	for _, m := range []int{1, 3} {
		c := cfg
		c.M = m
		vdpc, err := NewVDPC(c)
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, vdpc)
	}
	in, k := vec(5*cfg.N + 3)
	want, _, _, err := cores[0].DotLarge(in, k)
	if err != nil {
		t.Fatal(err)
	}
	other, ok := vec(2 * cfg.N)
	if _, _, _, err := cores[1].DotLarge(other, ok); err != nil { // shift any stream state
		t.Fatal(err)
	}
	if got, _, _, _ := cores[1].DotLarge(in, k); got != want {
		t.Fatalf("M=3 after another row: %d, M=1: %d", got, want)
	}
	one, kone := vec(cfg.N)
	est, _, _, _ := cores[1].DotLarge(one, kone)
	res, err := cores[0].VDPE(0).Dot(one, kone)
	if err != nil {
		t.Fatal(err)
	}
	if est != res.Est {
		t.Fatalf("one-chunk DotLarge %d, VDPE.Dot %d", est, res.Est)
	}
}
