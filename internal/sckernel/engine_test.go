package sckernel

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/quant"
)

// TestDotRowsMatchesSequentialDot: DotRows must be bit-identical to
// calling Dot row by row — with caller-supplied row keys and with nil
// keys — across consecutive DotRows calls on one engine, with noisy and
// ideal ADCs and rows whose length crosses the psum chunk seams.
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
			var keys []uint64
			if round%2 == 0 {
				keys = rowKeys(rows, length)
			}
			out := make([]int, nrows)
			rowed.DotRows(rows, dkv, keys, out)
			for v := range out {
				if want := serial.Dot(rows[v*length:(v+1)*length], dkv); out[v] != want {
					t.Fatalf("round %d ideal=%v row %d: DotRows %d != sequential Dot %d",
						round, ideal, v, out[v], want)
				}
			}
		}
	}
}

// rowKeys digests each length-lane row, as the lowering does.
func rowKeys(rows []int, length int) []uint64 {
	keys := make([]uint64, len(rows)/length)
	for i := range keys {
		keys[i] = core.VecKey(rows[i*length : (i+1)*length])
	}
	return keys
}

// TestDotRowsOrderFree: noisy DotRows over a permutation of the rows
// and their keys returns the same results, permuted — no row's ADC
// error depends on its position in the call.
func TestDotRowsOrderFree(t *testing.T) {
	cfg := testCfg(8, false)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	scale := 1 << uint(cfg.Bits)
	length := 2*cfg.N + 5
	const nrows = 12
	dkv := make([]int, length)
	for i := range dkv {
		dkv[i] = rng.Intn(2*scale+1) - scale
	}
	rows := make([]int, nrows*length)
	for i := range rows {
		rows[i] = rng.Intn(scale + 1)
	}
	keys := rowKeys(rows, length)
	want := make([]int, nrows)
	e.DotRows(rows, dkv, keys, want)
	perm := rng.Perm(nrows)
	prows := make([]int, len(rows))
	pkeys := make([]uint64, nrows)
	for i, p := range perm {
		copy(prows[i*length:(i+1)*length], rows[p*length:(p+1)*length])
		pkeys[i] = keys[p]
	}
	got := make([]int, nrows)
	e.DotRows(prows, dkv, pkeys, got)
	for i, p := range perm {
		if got[i] != want[p] {
			t.Fatalf("row %d at position %d: %d, in order %d", p, i, got[i], want[p])
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
	e.DotRows(nil, []int{-scale - 1}, nil, nil) // zero rows: no call, no panic
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
			e.DotRows(tc.rows, tc.dkv, nil, make([]int, len(tc.rows)/len(tc.dkv)))
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
