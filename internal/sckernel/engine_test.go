package sckernel

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/quant"
)

// TestDotRowsMatchesSequentialDot: DotRows must be bit-identical to
// calling Dot row by row in order — same estimates, same ADC RNG
// advancement — including across consecutive DotRows calls on one
// stateful engine, with noisy and ideal ADCs and rows whose length
// crosses the psum chunk seams.
func TestDotRowsMatchesSequentialDot(t *testing.T) {
	for _, ideal := range []bool{false, true} {
		cfg := testCfg(8, ideal)
		rowed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var _ quant.RowDotter = rowed
		rng := rand.New(rand.NewSource(5))
		scale := 1 << uint(cfg.Bits)
		length := 3*cfg.N + 7 // crosses chunk seams
		const nrows = 9
		for round := 0; round < 3; round++ {
			dkv := make([]int, length)
			for i := range dkv {
				dkv[i] = rng.Intn(2*scale+1) - scale
			}
			rows := make([]int, nrows*length)
			for i := range rows {
				rows[i] = rng.Intn(scale + 1)
			}
			out := make([]int, nrows)
			rowed.DotRows(rows, dkv, out)
			for v := range out {
				if want := serial.Dot(rows[v*length:(v+1)*length], dkv); out[v] != want {
					t.Fatalf("round %d ideal=%v row %d: DotRows %d != sequential Dot %d",
						round, ideal, v, out[v], want)
				}
			}
		}
	}
}

// TestDotRowsOperandContract: DotRows panics where the Dot loop would —
// on an out-of-range weight or input — and not at all on zero rows,
// where the loop makes no call.
func TestDotRowsOperandContract(t *testing.T) {
	e, err := New(testCfg(4, true))
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 << 4
	e.DotRows(nil, []int{-scale - 1}, nil) // zero rows: no call, no panic
	for _, tc := range []struct {
		name      string
		rows, dkv []int
	}{
		{"over-range weight", []int{1, 1}, []int{1, -scale - 1}},
		{"over-range input in row 1", []int{1, 1, 1, scale + 1}, []int{1, 1}},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: want panic", tc.name)
				} else if !strings.Contains(r.(string), "sckernel") {
					t.Fatalf("%s: panic %v lacks package context", tc.name, r)
				}
			}()
			e.DotRows(tc.rows, tc.dkv, make([]int, len(tc.rows)/len(tc.dkv)))
		}()
	}
}

// TestEngineFactoryMatchesScalarFactory: the packed factory must derive
// shard seeds exactly as quant.SconnaEngineFactory, so engines at the
// same shard index realize the same noise stream as their scalar twin.
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

// TestPlaneSharing: PlaneFor returns one image per precision — the
// built-once-and-shared contract every pooled engine relies on.
func TestPlaneSharing(t *testing.T) {
	if PlaneFor(8) != PlaneFor(8) {
		t.Fatal("PlaneFor(8) built two images")
	}
	a, err := New(testCfg(8, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testCfg(8, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.plane != b.plane {
		t.Fatal("engines at one precision hold different planes")
	}
}

// TestZeroLengthDot: an empty vector is zero chunks, zero estimate and
// zero RNG draws — exactly the scalar DotLarge walk.
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
	// The empty call must not have advanced the RNGs: both engines now
	// produce identical noisy traces.
	got := engineTrace(t, a, cfg.Bits, cfg.N)
	want := engineTrace(t, b, cfg.Bits, cfg.N)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d after empty dot: %d != %d (empty dot drew noise)", i, got[i], want[i])
		}
	}
}
