package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mustADC builds the converter for cfg or fails the test.
func mustADC(tb testing.TB, cfg Config) *ADC {
	tb.Helper()
	a, err := NewADC(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// convertAt converts (pos, neg) as chunk c of the row keyed key.
func convertAt(a *ADC, key uint64, c, pos, neg, scale int) int {
	return a.Convert(ChunkWord(a.RowWord(key), c), c, pos, neg, scale)
}

// TestADCStatistics pins the converter model over 4*10^5 keyed
// conversions (two chunks per row, each converting a count on one PCA):
// the relative error has mean ~0 and MAPE ~ADCMAPEPct. The tolerances
// are five standard errors of each estimator for n draws of the
// Gaussian realizing the MAPE; the counts are large enough that integer
// rounding moves neither statistic.
func TestADCStatistics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ADCSeed = 7
	a := mustADC(t, cfg)
	const rows = 200000
	const count = 1 << 20
	var sum, sumAbs float64
	for k := uint64(0); k < rows; k++ {
		pos := convertAt(a, k, 0, count, 0, 1)  // chunk 0: the positive PCA's draw
		neg := -convertAt(a, k, 1, 0, count, 1) // chunk 1: the negative PCA's draw
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
// chunk index, counts) — converting a row again replays it, in any
// chunk order, other keys and other seeds draw differently, and an
// ideal converter passes the exact count through.
func TestADCKeyed(t *testing.T) {
	cfg := DefaultConfig()
	a, b := mustADC(t, cfg), mustADC(t, cfg)
	row := func(a *ADC, key uint64) [3]int {
		return [3]int{convertAt(a, key, 0, 5000, 3000, 4), convertAt(a, key, 1, 7000, 100, 4), convertAt(a, key, 2, 1, 9000, 4)}
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
	for c, counts := range [][2]int{{1, 9000}, {7000, 100}, {5000, 3000}} {
		if got := convertAt(a, 42, 2-c, counts[0], counts[1], 4); got != first[2-c] {
			t.Fatalf("chunk %d converted out of order: %d, in order: %d", 2-c, got, first[2-c])
		}
	}
	cfg.ADCSeed++
	if row(mustADC(t, cfg), 42) == first {
		t.Fatal("two ADC seeds drew identical noise")
	}
	cfg.IdealADC = true
	if got := row(mustADC(t, cfg), 42); got != [3]int{8000, 27600, -35996} {
		t.Fatalf("ideal converter %v", got)
	}
}

// TestADCRealizationGolden pins the noise realization, so a change to
// the quantile table, its scaling, the field layout or the rounding
// fails here rather than passing every statistical test unseen: the
// digest of the sigma-scaled Q24 table at the paper's 1.3% MAPE, the
// unit table's moments, and Convert on fixed (seed, key, chunk, pos,
// neg) cases, zero counts and third chunks (a second noise word) among
// them.
func TestADCRealizationGolden(t *testing.T) {
	var sumAbs float64
	z := unitQuantiles()
	for _, v := range z {
		sumAbs += math.Abs(v)
	}
	if got := sumAbs / adcSize; math.Abs(got-0.797845) > 5e-7 {
		t.Fatalf("unit table E|z| = %.7f, want 0.797845", got)
	}
	if z[0] != -z[adcSize-1] || math.Abs(z[adcSize-1]-3.67) > 0.005 {
		t.Fatalf("unit table tails %.4f, %.4f, want -+3.67", z[0], z[adcSize-1])
	}

	a := mustADC(t, DefaultConfig())
	buf := make([]byte, 4*adcSize)
	for i, e := range a.eps {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(e))
	}
	sum := sha256.Sum256(buf)
	if got, want := hex.EncodeToString(sum[:8]), "a9b510ddfd986321"; got != want {
		t.Errorf("1.3%% table digest %s, want %s", got, want)
	}
	if got := a.eps[adcSize-1]; got != 1002747 {
		t.Errorf("1.3%% table max eps %d (Q24), want 1002747", got)
	}

	for _, tc := range []struct {
		seed          int64
		key           uint64
		chunk         int
		pos, neg, est int
	}{
		{1, 0, 0, 0, 0, 0},
		{1, 42, 0, 5000, 3000, 557568},
		{1, 42, 1, 7000, 100, 1719808},
		{1, 42, 2, 1, 9000, -2327808},
		{2023, 0xdeadbeef, 0, 0, 4096, -1021696},
		{2023, 0xdeadbeef, 1, 16384, 0, 4176640},
		{2023, 0xdeadbeef, 2, 0, 0, 0},
		{2023, 7, 2, 11264, 11264, 4096},
		{-5, 1 << 63, 3, 700, 20, 170752},
		{7, 99, 0, 1, 0, 256},
		{7, 99, 1, 37, 38, -256},
	} {
		cfg := DefaultConfig()
		cfg.ADCSeed = tc.seed
		if got := convertAt(mustADC(t, cfg), tc.key, tc.chunk, tc.pos, tc.neg, 256); got != tc.est {
			t.Errorf("seed %d key %#x chunk %d (%d, %d): %d, want %d", tc.seed, tc.key, tc.chunk, tc.pos, tc.neg, got, tc.est)
		}
	}
}

// TestADCConfigRange: NewADC, and through it NewVDPE and NewVDPC, fail
// closed on an ADCMAPEPct outside [0, MaxADCMAPEPct] and on a VDPE size
// whose PCA count could overflow the Q24 product, naming the field, and
// accept the paper point and the range's ends.
func TestADCConfigRange(t *testing.T) {
	huge := DefaultConfig()
	huge.ChannelSpacingNM = 1e-12 // a grid wide enough for any N
	huge.Bits, huge.N = 12, 1<<40
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		field string // "" accepts
	}{
		{"paper", func(*Config) {}, ""},
		{"mape-0", func(c *Config) { c.ADCMAPEPct = 0 }, ""},
		{"mape-max", func(c *Config) { c.ADCMAPEPct = MaxADCMAPEPct }, ""},
		{"ideal", func(c *Config) { c.IdealADC = true }, ""},
		{"mape-negative", func(c *Config) { c.ADCMAPEPct = -1 }, "ADCMAPEPct"},
		{"mape-above", func(c *Config) { c.ADCMAPEPct = MaxADCMAPEPct + 0.5 }, "ADCMAPEPct"},
		{"mape-nan", func(c *Config) { c.ADCMAPEPct = math.NaN() }, "ADCMAPEPct"},
		{"mape-inf", func(c *Config) { c.ADCMAPEPct = math.Inf(1) }, "ADCMAPEPct"},
		{"ideal-mape-above", func(c *Config) { c.IdealADC, c.ADCMAPEPct = true, 50 }, "ADCMAPEPct"},
		{"overflow", func(c *Config) { *c = huge }, "N="},
		{"overflow-ideal", func(c *Config) { *c = huge; c.IdealADC = true }, "N="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.N, cfg.M = 16, 2
			tc.edit(&cfg)
			for name, build := range map[string]func() error{
				"NewADC":  func() error { _, err := NewADC(cfg); return err },
				"NewVDPE": func() error { _, err := NewVDPE(cfg); return err },
				"NewVDPC": func() error { _, err := NewVDPC(cfg); return err },
			} {
				err := build()
				if (err == nil) != (tc.field == "") || err != nil && !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s: err %v, want one naming %q", name, err, tc.field)
				}
			}
		})
	}
	// The bound is exact: the largest accepted N builds, one more fails.
	cfg := huge
	a := mustADC(t, DefaultConfig())
	limit := (math.MaxInt64 - adcHalf) / (adcOne + int64(a.eps[adcSize-1])) >> uint(cfg.Bits)
	cfg.N = int(limit)
	if _, err := NewADC(cfg); err != nil {
		t.Fatalf("N=%d: %v", cfg.N, err)
	}
	cfg.N++
	if _, err := NewADC(cfg); err == nil {
		t.Fatalf("N=%d accepted past the Q24 range", cfg.N)
	}
}

// FuzzConvert: on counts in [0, N*2^B], Convert never panics; an ideal
// converter returns (pos-neg)*scale; a noisy one lies within
// (pos+neg)*max|eps| plus one rounding unit of exact, in product units;
// converting again, on a second converter, replays it.
func FuzzConvert(f *testing.F) {
	f.Add(int64(2023), uint64(0), uint8(7), uint16(63), uint8(0), uint8(0), uint64(300), uint64(200))
	f.Add(int64(1), uint64(42), uint8(11), uint16(4095), uint8(200), uint8(2), uint64(1<<40), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, key uint64, bits uint8, n uint16, mape, chunk uint8, pos, neg uint64) {
		cfg := DefaultConfig()
		cfg.Bits = 1 + int(bits)%12
		cfg.N = 1 + int(n)%4096
		cfg.ADCMAPEPct = float64(mape%201) / 10 // [0, 20]; 0 is the paper's 1.3
		cfg.ADCSeed = seed
		scale := 1 << uint(cfg.Bits)
		maxOnes := uint64(cfg.N * scale)
		p, q, c := int(pos%(maxOnes+1)), int(neg%(maxOnes+1)), int(chunk%8)

		a := mustADC(t, cfg)
		est := convertAt(a, key, c, p, q, scale)
		if again := convertAt(mustADC(t, cfg), key, c, p, q, scale); again != est {
			t.Fatalf("replay on a second converter %d, first %d", again, est)
		}
		if est%scale != 0 {
			t.Fatalf("estimate %d not a multiple of scale %d", est, scale)
		}
		dev := est/scale - (p - q)
		if dev < 0 {
			dev = -dev
		}
		// |round(x) - (p-q)| <= (p+q)*max|eps|/2^24 + 1/2, in Q24.
		if bound := int64(p+q)*int64(a.eps[adcSize-1]) + adcOne; int64(dev)<<adcFrac > bound {
			t.Fatalf("counts (%d, %d) at MAPE %v: estimate off by %d counts, bound %.3f",
				p, q, cfg.ADCMAPEPct, dev, float64(bound)/adcOne)
		}

		cfg.IdealADC = true
		if got := convertAt(mustADC(t, cfg), key, c, p, q, scale); got != (p-q)*scale {
			t.Fatalf("ideal converter %d, want %d", got, (p-q)*scale)
		}
	})
}

// sink keeps BenchmarkADCConvertRows's conversions live.
var sink int

// BenchmarkADCConvertRows times the keyed conversion alone over the
// served chunk mix: rows of the served model's three conv tiles (S = 9,
// 36, 72 lanes on 64-lane VDPEs, so one, one and two psum chunks per
// row, in the tiles' row proportions 256:64:16 per DKV), each deriving
// its word 0 and converting its chunks' counts. ns/op is per row.
func BenchmarkADCConvertRows(b *testing.B) {
	cfg := DefaultConfig()
	cfg.N, cfg.M, cfg.ADCSeed = 64, 1, 2023
	a := mustADC(b, cfg)
	const scale = 256
	type row struct {
		key    uint64
		counts [][2]int
	}
	rng := rand.New(rand.NewSource(11))
	var rows []row
	for _, sh := range []struct{ n, s int }{{256, 9}, {64, 36}, {16, 72}} {
		for range sh.n {
			r := row{key: rng.Uint64()}
			for lo := 0; lo < sh.s; lo += cfg.N {
				lanes := min(cfg.N, sh.s-lo)
				r.counts = append(r.counts, [2]int{rng.Intn(lanes*scale/4 + 1), rng.Intn(lanes*scale/4 + 1)})
			}
			rows = append(rows, r)
		}
	}
	i := 0
	for b.Loop() {
		r := &rows[i%len(rows)]
		i++
		w := a.RowWord(r.key)
		for c, n := range r.counts {
			sink += a.Convert(ChunkWord(w, c), c, n[0], n[1], scale)
		}
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
