package sckernel

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/sc"
)

// testCfg is the equivalence operating point: a small VDPE so the seam
// lengths (N-1, N, N+1, 3N+7) stay cheap at every precision, M=3 so the
// chunk walk crosses mirrored-VDPE RNG boundaries.
func testCfg(bits int, ideal bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Bits = bits
	cfg.N = 8
	cfg.M = 3
	cfg.ADCSeed = 77
	cfg.IdealADC = ideal
	return cfg
}

// seamLengths are the chunk-seam vector lengths of the sweep, relative
// to the VDPE size n.
func seamLengths(n int) []int {
	return []int{1, n - 1, n, n + 1, 3*n + 7}
}

// operandCase is one named (DIV, DKV) pair of the sweep.
type operandCase struct {
	name     string
	div, dkv []int
}

// operandCases builds the sweep's operand patterns for a given stream
// scale and vector length: all-zero, max-magnitude at both signs,
// alternating full-scale signs, and seeded random draws (mixed signs,
// full operand range including the 2^B full-scale value).
func operandCases(scale, length int, seed int64) []operandCase {
	constCase := func(name string, iv, wv int) operandCase {
		c := operandCase{name: name, div: make([]int, length), dkv: make([]int, length)}
		for i := range c.div {
			c.div[i] = iv
			c.dkv[i] = wv
		}
		return c
	}
	cases := []operandCase{
		constCase("all-zero", 0, 0),
		constCase("max-mag-pos", scale, scale),
		constCase("max-mag-neg", scale, -scale),
	}
	alt := constCase("alt-sign-max", scale, scale)
	for i := range alt.dkv {
		if i%2 == 1 {
			alt.dkv[i] = -scale
		}
	}
	cases = append(cases, alt)
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < 3; r++ {
		c := operandCase{name: fmt.Sprintf("random-%d", r), div: make([]int, length), dkv: make([]int, length)}
		for i := range c.div {
			c.div[i] = rng.Intn(scale + 1)
			c.dkv[i] = rng.Intn(2*scale+1) - scale
		}
		cases = append(cases, c)
	}
	return cases
}

// TestKernelCountsExhaustive sweeps every (input, weight-magnitude) pair
// at every precision B in 2..8, asserting all packed kernel tiers — the
// analytic multiply-shift path the default plane takes, the
// prefix-popcount path (exercised on a private plane with the analytic
// tier disabled) and the generic fused word walk — reproduce the scalar
// LUT multiply (sc.OSMLUT.MulInts) count for count: the per-lane bitwise
// pin underneath everything else in this tier.
func TestKernelCountsExhaustive(t *testing.T) {
	for bits := 2; bits <= 8; bits++ {
		if testing.Short() && bits > 6 {
			break
		}
		lut := sc.NewOSMLUT(bits)
		p := PlaneFor(bits)
		if !p.analytic {
			t.Fatalf("B=%d: default Bresenham plane failed rate-exactness verification", bits)
		}
		// A private plane with the analytic tier masked off routes
		// DotCounts through the prefix-popcount kernel.
		pfx := NewPlane(bits, bitstream.Unary{}, bitstream.Bresenham{})
		pfx.analytic = false
		l := p.L
		for ib := 0; ib <= l; ib++ {
			for wb := 0; wb <= l; wb++ {
				want := lut.MulInts(ib, wb)
				for _, sign := range []int{1, -1} {
					div, dkv := []int{ib}, []int{sign * wb}
					wantPos, wantNeg := want, 0
					if sign < 0 && wb != 0 {
						// -0 is 0: sign steering keys off wb<0.
						wantPos, wantNeg = 0, want
					}
					pos, neg, err := p.DotCounts(div, dkv)
					if err != nil {
						t.Fatalf("B=%d DotCounts(%d,%d): %v", bits, ib, sign*wb, err)
					}
					fpos, fneg, err := pfx.DotCounts(div, dkv)
					if err != nil {
						t.Fatalf("B=%d prefix DotCounts(%d,%d): %v", bits, ib, sign*wb, err)
					}
					gpos, gneg, err := p.DotCountsGeneric(div, dkv)
					if err != nil {
						t.Fatalf("B=%d DotCountsGeneric(%d,%d): %v", bits, ib, sign*wb, err)
					}
					if pos != wantPos || neg != wantNeg ||
						fpos != wantPos || fneg != wantNeg ||
						gpos != wantPos || gneg != wantNeg {
						t.Fatalf("B=%d ib=%d wb=%d: kernel tiers (%d,%d)/(%d,%d)/(%d,%d) != scalar (%d,%d)",
							bits, ib, sign*wb, pos, neg, fpos, fneg, gpos, gneg, wantPos, wantNeg)
					}
				}
			}
		}
	}
}

// TestDotCountsMatchVDPE pins the packed chunk kernels against the
// scalar reference core.VDPE.Dot — PosOnes, NegOnes and Exact bitwise —
// over the operand patterns at every precision in the sweep.
func TestDotCountsMatchVDPE(t *testing.T) {
	for bits := 2; bits <= 8; bits++ {
		cfg := testCfg(bits, true)
		vdpe, err := core.NewVDPE(cfg)
		if err != nil {
			t.Fatalf("B=%d NewVDPE: %v", bits, err)
		}
		p := PlaneFor(bits)
		scale := 1 << uint(bits)
		for _, length := range []int{1, cfg.N - 1, cfg.N} {
			for _, oc := range operandCases(scale, length, int64(100*bits)) {
				ref, err := vdpe.Dot(oc.div, oc.dkv)
				if err != nil {
					t.Fatalf("B=%d %s: VDPE.Dot: %v", bits, oc.name, err)
				}
				pos, neg, err := p.DotCounts(oc.div, oc.dkv)
				if err != nil {
					t.Fatalf("B=%d %s: DotCounts: %v", bits, oc.name, err)
				}
				gpos, gneg, err := p.DotCountsGeneric(oc.div, oc.dkv)
				if err != nil {
					t.Fatalf("B=%d %s: DotCountsGeneric: %v", bits, oc.name, err)
				}
				if pos != ref.PosOnes || neg != ref.NegOnes {
					t.Fatalf("B=%d %s len=%d: DotCounts (%d,%d) != VDPE (%d,%d)",
						bits, oc.name, length, pos, neg, ref.PosOnes, ref.NegOnes)
				}
				if gpos != ref.PosOnes || gneg != ref.NegOnes {
					t.Fatalf("B=%d %s len=%d: generic kernel disagrees with VDPE",
						bits, oc.name, length)
				}
				if exact := (pos - neg) * scale; exact != ref.Exact {
					t.Fatalf("B=%d %s: exact %d != VDPE %d", bits, oc.name, exact, ref.Exact)
				}
			}
		}
	}
}

// engineTrace runs one fixed call sequence — every seam length times
// every operand pattern, in order — through a quant.DotEngine and
// records the estimates. Stateful engines advance their ADC RNGs across
// the whole sequence, so equal traces mean equal draw orders, not just
// equal arithmetic.
func engineTrace(t *testing.T, e quant.DotEngine, bits, n int) []int {
	t.Helper()
	scale := 1 << uint(bits)
	var trace []int
	for _, length := range seamLengths(n) {
		for _, oc := range operandCases(scale, length, int64(1000*bits+length)) {
			trace = append(trace, e.Dot(oc.div, oc.dkv))
		}
	}
	return trace
}

// TestEngineMatchesSconnaEngine is the Est-level pin: the packed Engine
// must reproduce the scalar quant.SconnaEngine call for call across
// chunk seams — with the seeded ADC noise applied (and with it
// disabled), at every precision of the sweep.
func TestEngineMatchesSconnaEngine(t *testing.T) {
	for bits := 2; bits <= 8; bits++ {
		for _, ideal := range []bool{false, true} {
			cfg := testCfg(bits, ideal)
			scalar, err := quant.NewSconnaEngine(cfg)
			if err != nil {
				t.Fatalf("B=%d scalar engine: %v", bits, err)
			}
			packed, err := New(cfg)
			if err != nil {
				t.Fatalf("B=%d packed engine: %v", bits, err)
			}
			want := engineTrace(t, scalar, bits, cfg.N)
			got := engineTrace(t, packed, bits, cfg.N)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("B=%d ideal=%v call %d: packed %d != scalar %d",
						bits, ideal, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDotLargeMatchesVDPC pins the packed chunk reduction against
// core.VDPC.DotLarge directly: est, exact AND the chunk count, on fresh
// engine pairs per sequence so the RNG walks stay aligned.
func TestDotLargeMatchesVDPC(t *testing.T) {
	for _, bits := range []int{2, 5, 8} {
		for _, ideal := range []bool{false, true} {
			cfg := testCfg(bits, ideal)
			vdpc, err := core.NewVDPC(cfg)
			if err != nil {
				t.Fatalf("B=%d NewVDPC: %v", bits, err)
			}
			eng, err := New(cfg)
			if err != nil {
				t.Fatalf("B=%d New: %v", bits, err)
			}
			scale := 1 << uint(bits)
			for _, length := range seamLengths(cfg.N) {
				for _, oc := range operandCases(scale, length, int64(7*bits+length)) {
					wantEst, wantExact, wantChunks, err := vdpc.DotLarge(oc.div, oc.dkv)
					if err != nil {
						t.Fatalf("B=%d %s: DotLarge: %v", bits, oc.name, err)
					}
					gotEst, gotExact, gotChunks, err := eng.DotLarge(oc.div, oc.dkv)
					if err != nil {
						t.Fatalf("B=%d %s: packed DotLarge: %v", bits, oc.name, err)
					}
					if gotEst != wantEst || gotExact != wantExact || gotChunks != wantChunks {
						t.Fatalf("B=%d ideal=%v %s len=%d: packed (%d,%d,%d) != scalar (%d,%d,%d)",
							bits, ideal, oc.name, length,
							gotEst, gotExact, gotChunks, wantEst, wantExact, wantChunks)
					}
				}
			}
		}
	}
}

// TestEquivalenceAcrossWorkerCounts fans the (precision, ADC-mode)
// sweep across worker pools of size 1, 4 and GOMAXPROCS — every job
// builds private engines but all jobs share the process-wide packed
// Planes, which is exactly the serving pool's sharing shape. Under
// -race this is the shared-image safety proof; the result traces must
// be identical at every worker count.
func TestEquivalenceAcrossWorkerCounts(t *testing.T) {
	type job struct {
		bits  int
		ideal bool
	}
	var jobs []job
	for bits := 2; bits <= 8; bits++ {
		jobs = append(jobs, job{bits, false}, job{bits, true})
	}
	run := func(workers int) [][]int {
		traces := make([][]int, len(jobs))
		err := parallel.ForEach(workers, len(jobs), func(j int) error {
			cfg := testCfg(jobs[j].bits, jobs[j].ideal)
			scalar, err := quant.NewSconnaEngine(cfg)
			if err != nil {
				return err
			}
			packed, err := New(cfg)
			if err != nil {
				return err
			}
			got := engineTrace(t, packed, jobs[j].bits, cfg.N)
			want := engineTrace(t, scalar, jobs[j].bits, cfg.N)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("B=%d ideal=%v call %d: packed %d != scalar %d",
						jobs[j].bits, jobs[j].ideal, i, got[i], want[i])
				}
			}
			traces[j] = got
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return traces
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for j := range ref {
			for i := range ref[j] {
				if got[j][i] != ref[j][i] {
					t.Fatalf("workers=%d job %d call %d: %d != serial %d",
						workers, j, i, got[j][i], ref[j][i])
				}
			}
		}
	}
}
