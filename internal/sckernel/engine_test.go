package sckernel

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/quant"
)

// tileOperands draws nr rows and nd DKVs of s lanes at precision bits;
// rows listed in zeroRows stay all zero.
func tileOperands(rng *rand.Rand, bits, nr, nd, s int, zeroRows ...int) (rows, dkvs []int) {
	scale := 1 << uint(bits)
	rows = make([]int, nr*s)
	for i := range rows {
		rows[i] = rng.Intn(scale + 1)
	}
	for _, r := range zeroRows {
		clear(rows[r*s : (r+1)*s])
	}
	dkvs = make([]int, nd*s)
	for i := range dkvs {
		dkvs[i] = rng.Intn(2*scale+1) - scale
	}
	return rows, dkvs
}

// fullScaleOperands draws nr rows and nd DKVs of s lanes at precision
// bits with every lane at full scale: rows 2^B, DKVs ±2^B, so every
// lane's count and every packed field reach their caps.
func fullScaleOperands(rng *rand.Rand, bits, nr, nd, s int) (rows, dkvs []int) {
	scale := 1 << uint(bits)
	rows = make([]int, nr*s)
	for i := range rows {
		rows[i] = scale
	}
	dkvs = make([]int, nd*s)
	for i := range dkvs {
		dkvs[i] = scale * (2*rng.Intn(2) - 1)
	}
	return rows, dkvs
}

// tileShape is one (rows, DKVs, lanes) shape of the tile sweep.
type tileShape struct{ nr, nd, s int }

// tileShapes spans S below, at and across psum chunk seams of VDPE size
// n (a dense-layer-wide row among them), row counts of every residue
// mod 3 (the kernel's packed row groups) and odd and even DKV counts
// (its DKV pairs).
func tileShapes(n int) []tileShape {
	return []tileShape{
		{9, 5, 3*n + 7},
		{4, 4, n},
		{7, 1, 2*n + 1},
		{3, 13, 1},
		{2, 6, 40*n + 3},
		{5, 2, n - 1},
	}
}

// TestDotRowsMatchesSequentialDot: every row of a DotTile must equal
// sequential Dot calls per (row, DKV) bit for bit, on the noisy and the
// ideal-ADC packed engine at every precision B in 1..12, over
// consecutive calls on one engine, on the shapes of tileShapes with
// all-zero rows and with full-scale operands. Beyond the paper grid, a
// config whose N*2^B reaches 2^21 must take the two-field layout (a
// full-scale chunk would overflow a 21-bit field) and one whose N*2^B
// reaches 2^32 the one-field layout.
func TestDotRowsMatchesSequentialDot(t *testing.T) {
	type point struct {
		cfg    core.Config
		fields int
		shapes []tileShape
	}
	var points []point
	for bits := 1; bits <= 12; bits++ {
		fields := 3
		if 2*bits+1 > 21 {
			fields = 2
		}
		for _, ideal := range []bool{false, true} {
			cfg := testCfg(bits, ideal)
			points = append(points, point{cfg, fields, tileShapes(cfg.N)})
		}
	}
	for _, ideal := range []bool{false, true} {
		wide := testCfg(10, ideal)
		wide.N, wide.ChannelSpacingNM = 2048, 0.02 // 2500 channels: N*2^B = 2^21
		points = append(points, point{wide, 2, []tileShape{{4, 3, wide.N}, {2, 2, 2*wide.N + 5}}})
		huge := testCfg(12, ideal)
		huge.N, huge.ChannelSpacingNM = 1<<20, 40.0/(1<<20) // N*2^B = 2^32
		points = append(points, point{huge, 1, []tileShape{{4, 3, 37}, {3, 2, 1}}})
	}
	for _, pt := range points {
		cfg := pt.cfg
		tiled, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tiled.fields != pt.fields {
			t.Fatalf("B=%d N=%d: %d rows per word, want %d", cfg.Bits, cfg.N, tiled.fields, pt.fields)
		}
		serial, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var _ quant.TileDotter = tiled
		rng := rand.New(rand.NewSource(int64(5 + cfg.Bits)))
		for _, sh := range pt.shapes {
			for _, full := range []bool{false, true} {
				rows, dkvs := tileOperands(rng, cfg.Bits, sh.nr, sh.nd, sh.s, 0, sh.nr-1)
				if full {
					rows, dkvs = fullScaleOperands(rng, cfg.Bits, sh.nr, sh.nd, sh.s)
				}
				out := make([]int, sh.nr*sh.nd)
				tiled.DotTile(rows, dkvs, sh.s, out)
				for j := 0; j < sh.nd; j++ {
					for i := 0; i < sh.nr; i++ {
						want := serial.Dot(rows[i*sh.s:(i+1)*sh.s], dkvs[j*sh.s:(j+1)*sh.s])
						if got := out[j*sh.nr+i]; got != want {
							t.Fatalf("B=%d N=%d ideal=%v full=%v %dx%dx%d: row %d DKV %d: DotTile %d != Dot %d",
								cfg.Bits, cfg.N, cfg.IdealADC, full, sh.nr, sh.nd, sh.s, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDotRowsOrderFree: noisy DotTile over a permutation of the rows and
// of the DKVs returns the same results, permuted — no conversion's ADC
// error depends on where its operands sit in the tile.
func TestDotRowsOrderFree(t *testing.T) {
	cfg := testCfg(8, false)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	const nr, nd = 12, 6
	s := 2*cfg.N + 5
	rows, dkvs := tileOperands(rng, cfg.Bits, nr, nd, s)
	want := make([]int, nr*nd)
	e.DotTile(rows, dkvs, s, want)
	rp, dp := rng.Perm(nr), rng.Perm(nd)
	prows, pdkvs := make([]int, len(rows)), make([]int, len(dkvs))
	for i, p := range rp {
		copy(prows[i*s:(i+1)*s], rows[p*s:(p+1)*s])
	}
	for j, p := range dp {
		copy(pdkvs[j*s:(j+1)*s], dkvs[p*s:(p+1)*s])
	}
	got := make([]int, nr*nd)
	e.DotTile(prows, pdkvs, s, got)
	for j, q := range dp {
		for i, p := range rp {
			if got[j*nr+i] != want[q*nr+p] {
				t.Fatalf("row %d DKV %d at (%d, %d): %d, in order %d", p, q, i, j, got[j*nr+i], want[q*nr+p])
			}
		}
	}
}

// TestDotRowsOperandContract: DotTile panics where the Dot loop over its
// rows would — on an out-of-range weight or input lane, zero lanes
// included — and not at all when there are no rows or no DKVs, where the
// loop makes no call.
func TestDotRowsOperandContract(t *testing.T) {
	e, err := New(testCfg(4, true))
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 << 4
	e.DotTile(nil, []int{-scale - 1}, 1, nil) // zero rows: no call, no panic
	e.DotTile([]int{scale + 1}, nil, 1, nil)  // zero DKVs: no call, no panic
	for _, tc := range []struct {
		name       string
		rows, dkvs []int
		s          int
	}{
		{"over-range weight in DKV 1", []int{1, 1}, []int{1, 1, 1, -scale - 1}, 2},
		{"over-range input in row 1", []int{1, 1, 0, scale + 1}, []int{1, 1}, 2},
		{"negative input after zeros", []int{0, 0, 0, -1}, []int{1, 1, 1, 1}, 4},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: want panic", tc.name)
				} else if !strings.Contains(r.(string), "sckernel") {
					t.Fatalf("%s: panic %v lacks package context", tc.name, r)
				}
			}()
			e.DotTile(tc.rows, tc.dkvs, tc.s, make([]int, len(tc.rows)/tc.s*len(tc.dkvs)/tc.s))
		}()
		// Dot panics on the same operands.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Dot did not panic", tc.name)
				}
			}()
			for i := 0; i < len(tc.rows); i += tc.s {
				for j := 0; j < len(tc.dkvs); j += tc.s {
					e.Dot(tc.rows[i:i+tc.s], tc.dkvs[j:j+tc.s])
				}
			}
		}()
	}
}

// TestEngineFactoryMatchesScalarFactory: the packed factory must build
// engines configured exactly as quant.SconnaEngineFactory's, so engines
// at the same shard index realize the same noise as their scalar twin.
func TestEngineFactoryMatchesScalarFactory(t *testing.T) {
	cfg := testCfg(6, false)
	packedF := EngineFactory(cfg)
	scalarF := quant.SconnaEngineFactory(cfg)
	for _, shard := range []int{0, 1, 7} {
		pe, err := packedF(shard)
		if err != nil {
			t.Fatalf("packed factory(%d): %v", shard, err)
		}
		se, err := scalarF(shard)
		if err != nil {
			t.Fatalf("scalar factory(%d): %v", shard, err)
		}
		got := engineTrace(t, pe, cfg.Bits, cfg.N)
		want := engineTrace(t, se, cfg.Bits, cfg.N)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d call %d: packed %d != scalar %d", shard, i, got[i], want[i])
			}
		}
	}
}

// TestEngineNames: the packed engine labels itself distinctly from the
// scalar plane in reports.
func TestEngineNames(t *testing.T) {
	for _, tc := range []struct {
		ideal bool
		want  string
	}{{false, "sconna-packed"}, {true, "sconna-packed-ideal-adc"}} {
		e, err := New(testCfg(4, tc.ideal))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != tc.want {
			t.Fatalf("Name() = %q, want %q", e.Name(), tc.want)
		}
	}
}

// TestEngineConfigValidation: configs the scalar core rejects must be
// rejected here too — the packed plane is a drop-in, not a loosening.
func TestEngineConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*testing.T) bool
	}{
		{"bits too high", func(t *testing.T) bool {
			cfg := testCfg(8, false)
			cfg.Bits = 13
			_, err := New(cfg)
			return err != nil
		}},
		{"zero N", func(t *testing.T) bool {
			cfg := testCfg(8, false)
			cfg.N = 0
			_, err := New(cfg)
			return err != nil
		}},
		{"zero M", func(t *testing.T) bool {
			cfg := testCfg(8, false)
			cfg.M = 0
			_, err := New(cfg)
			return err != nil
		}},
		{"N beyond DWDM grid", func(t *testing.T) bool {
			cfg := testCfg(8, false)
			cfg.N = 100000
			_, err := New(cfg)
			return err != nil
		}},
	} {
		if !tc.mut(t) {
			t.Fatalf("%s: want error, got nil", tc.name)
		}
	}
}

// TestEngineOperandContract: out-of-range operands panic through Dot
// (the quantizer contract, matching quant.SconnaEngine) and error
// through DotLarge.
func TestEngineOperandContract(t *testing.T) {
	e, err := New(testCfg(4, true))
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 << 4
	if _, _, _, err := e.DotLarge([]int{scale + 1}, []int{1}); err == nil {
		t.Fatal("over-range input: want error")
	}
	if _, _, _, err := e.DotLarge([]int{1}, []int{-scale - 1}); err == nil {
		t.Fatal("over-range weight: want error")
	}
	if _, _, _, err := e.DotLarge([]int{1, 2}, []int{1}); err == nil {
		t.Fatal("length mismatch: want error")
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Dot with invalid operands: want panic")
		} else if !strings.Contains(r.(string), "sckernel") {
			t.Fatalf("panic %v lacks package context", r)
		}
	}()
	e.Dot([]int{-1}, []int{1})
}

// TestZeroLengthDot: an empty vector is zero chunks and zero estimate —
// exactly the scalar DotLarge walk — and leaves later results alone.
func TestZeroLengthDot(t *testing.T) {
	cfg := testCfg(6, false)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, exact, chunks, err := a.DotLarge(nil, nil)
	if err != nil || est != 0 || exact != 0 || chunks != 0 {
		t.Fatalf("empty DotLarge = (%d,%d,%d,%v), want zeros", est, exact, chunks, err)
	}
	// The empty call must not disturb later conversions: both engines
	// now produce identical noisy traces.
	got := engineTrace(t, a, cfg.Bits, cfg.N)
	want := engineTrace(t, b, cfg.Bits, cfg.N)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d after empty dot: %d != %d (empty dot drew noise)", i, got[i], want[i])
		}
	}
}
