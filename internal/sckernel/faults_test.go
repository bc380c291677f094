package sckernel

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// faultSpec mirrors a core fault list onto a packed FaultMask.
type faultSpec struct {
	name   string
	faults []core.Fault
}

func (fs faultSpec) mask(n int) *FaultMask {
	m := NewFaultMask(n)
	for _, f := range fs.faults {
		if f.Kind == core.StuckDark {
			m.StuckDark(f.Lane)
		} else {
			m.StuckLit(f.Lane)
		}
	}
	return m
}

// TestFaultyVDPEMatchesPackedKernels is the real equivalence test the
// faults plane was missing: core.FaultyVDPE.Dot against the packed
// fault kernel, PosOnes/NegOnes/Exact bitwise, and Est converted from
// the packed counts through a core.ADC keyed by the same operands.
func TestFaultyVDPEMatchesPackedKernels(t *testing.T) {
	specs := []faultSpec{
		{name: "none"},
		{name: "dark-0", faults: []core.Fault{{Lane: 0, Kind: core.StuckDark}}},
		{name: "lit-3", faults: []core.Fault{{Lane: 3, Kind: core.StuckLit}}},
		{name: "dark-1-lit-5", faults: []core.Fault{
			{Lane: 1, Kind: core.StuckDark}, {Lane: 5, Kind: core.StuckLit}}},
		{name: "all-dark", faults: func() []core.Fault {
			var fs []core.Fault
			for lane := 0; lane < 8; lane++ {
				fs = append(fs, core.Fault{Lane: lane, Kind: core.StuckDark})
			}
			return fs
		}()},
	}
	for _, bits := range []int{4, 8} {
		for _, ideal := range []bool{false, true} {
			cfg := testCfg(bits, ideal)
			cfg.M = 1
			scale := 1 << uint(bits)
			for _, spec := range specs {
				vdpe, err := core.NewVDPE(cfg)
				if err != nil {
					t.Fatal(err)
				}
				faulty, err := vdpe.InjectFaults(spec.faults...)
				if err != nil {
					t.Fatal(err)
				}
				p := PlaneFor(bits)
				mask := spec.mask(cfg.N)
				if got, want := mask.Count(), len(spec.faults); got != want {
					t.Fatalf("%s: mask count %d != %d", spec.name, got, want)
				}
				adc := core.NewADC(cfg)
				opRng := rand.New(rand.NewSource(int64(13*bits) + int64(len(spec.faults))))
				for call := 0; call < 6; call++ {
					div := make([]int, cfg.N)
					dkv := make([]int, cfg.N)
					for i := range div {
						div[i] = opRng.Intn(scale + 1)
						dkv[i] = opRng.Intn(2*scale+1) - scale
					}
					ref, err := faulty.Dot(div, dkv)
					if err != nil {
						t.Fatalf("%s call %d: FaultyVDPE.Dot: %v", spec.name, call, err)
					}
					pos, neg, err := p.DotCountsFaulty(div, dkv, mask)
					if err != nil {
						t.Fatalf("%s call %d: DotCountsFaulty: %v", spec.name, call, err)
					}
					if pos != ref.PosOnes || neg != ref.NegOnes {
						t.Fatalf("B=%d %s call %d: packed counts (%d,%d) != FaultyVDPE (%d,%d)",
							bits, spec.name, call, pos, neg, ref.PosOnes, ref.NegOnes)
					}
					exact := (pos - neg) * scale
					if exact != ref.Exact {
						t.Fatalf("B=%d %s call %d: exact %d != %d", bits, spec.name, call, exact, ref.Exact)
					}
					adc.StartRow(div, dkv)
					if est := adc.Convert(pos, neg, scale); est != ref.Est {
						t.Fatalf("B=%d ideal=%v %s call %d: est %d != FaultyVDPE %d",
							bits, ideal, spec.name, call, est, ref.Est)
					}
				}
			}
		}
	}
}

// TestFaultDegradationBound: unary stochastic encoding bounds every
// single lane fault's damage by WorstCaseLaneError, independent of
// which lane fails — the Section II-D graceful-degradation property,
// demonstrated here on the packed kernels across every lane and both
// fault kinds.
func TestFaultDegradationBound(t *testing.T) {
	cfg := testCfg(6, true)
	cfg.M = 1
	vdpe, err := core.NewVDPE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := vdpe.WorstCaseLaneError()
	scale := 1 << uint(cfg.Bits)
	p := PlaneFor(cfg.Bits)
	rng := rand.New(rand.NewSource(99))
	div := make([]int, cfg.N)
	dkv := make([]int, cfg.N)
	for i := range div {
		div[i] = rng.Intn(scale + 1)
		dkv[i] = rng.Intn(2*scale+1) - scale
	}
	pos0, neg0, err := p.DotCounts(div, dkv)
	if err != nil {
		t.Fatal(err)
	}
	clean := (pos0 - neg0) * scale
	for lane := 0; lane < cfg.N; lane++ {
		for _, kind := range []core.FaultKind{core.StuckDark, core.StuckLit} {
			mask := (faultSpec{faults: []core.Fault{{Lane: lane, Kind: kind}}}).mask(cfg.N)
			pos, neg, err := p.DotCountsFaulty(div, dkv, mask)
			if err != nil {
				t.Fatal(err)
			}
			got := (pos - neg) * scale
			if diff := got - clean; diff > bound || diff < -bound {
				t.Fatalf("lane %d %v: degradation %d exceeds worst-case bound %d",
					lane, kind, diff, bound)
			}
		}
	}
	// The bound is tight: a stuck-lit lane whose fault-free product is
	// zero injects exactly scale*scale.
	zeros := make([]int, cfg.N)
	mask := (faultSpec{faults: []core.Fault{{Lane: 2, Kind: core.StuckLit}}}).mask(cfg.N)
	pos, neg, err := p.DotCountsFaulty(zeros, zeros, mask)
	if err != nil {
		t.Fatal(err)
	}
	if got := (pos - neg) * scale; got != bound {
		t.Fatalf("stuck-lit on dark lane: %d, want exactly the bound %d", got, bound)
	}
}
