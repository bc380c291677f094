package sckernel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

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

// quantOperands draws nr rows and nd DKVs of s lanes in the range quant
// feeds a served model: rows in [0, 2^B-1], zero with probability 0.4
// as a ReLU leaves them, DKVs in [-(2^B-1), 2^B-1]. With top set, every
// row lane is 2^B-1 and every weight ±(2^B-1), so each lane's count
// and each chunk's count sum reach their caps inside that range.
func quantOperands(rng *rand.Rand, bits, nr, nd, s int, top bool) (rows, dkvs []int) {
	hi := 1<<uint(bits) - 1
	rows = make([]int, nr*s)
	for i := range rows {
		switch {
		case top:
			rows[i] = hi
		case rng.Float64() >= 0.4:
			rows[i] = rng.Intn(hi + 1)
		}
	}
	dkvs = make([]int, nd*s)
	for i := range dkvs {
		if top {
			dkvs[i] = hi * (2*rng.Intn(2) - 1)
		} else {
			dkvs[i] = rng.Intn(2*hi+1) - hi
		}
	}
	return rows, dkvs
}

// tileShape is one (rows, DKVs, lanes) shape of the tile sweep.
type tileShape struct{ nr, nd, s int }

// tileShapes spans S below, at and across psum chunk seams of VDPE size
// n (a dense-layer-wide row among them), row counts of every residue
// mod 3 (the portable kernel's packed row groups) and around the SIMD
// kernel's 16-row groups (1, 15, 16, 17, 33), and odd and even DKV
// counts (both kernels' DKV pairs).
func tileShapes(n int) []tileShape {
	return []tileShape{
		{9, 5, 3*n + 7},
		{4, 4, n},
		{7, 1, 2*n + 1},
		{3, 13, 1},
		{2, 6, 40*n + 3},
		{5, 2, n - 1},
		{1, 3, n + 2},
		{15, 5, 2*n + 1},
		{16, 3, n},
		{17, 1, 3*n + 7},
		{33, 7, n - 1},
	}
}

// tileOperandKinds names the operand draws of the tile sweep: the full
// operand range with all-zero first and last rows, full scale, the
// quantizer's range and its top, and quantizer-range tiles with one
// lane out of that range — a row lane at 2^B or a weight at -2^B —
// which the SIMD kernel must leave to the portable one.
var tileOperandKinds = []string{"random", "full", "quant", "quant-top", "row-at-scale", "weight-at-minus-scale"}

// kindOperands draws one tile of the named kind.
func kindOperands(rng *rand.Rand, kind string, bits int, sh tileShape) (rows, dkvs []int) {
	switch kind {
	case "random":
		return tileOperands(rng, bits, sh.nr, sh.nd, sh.s, 0, sh.nr-1)
	case "full":
		return fullScaleOperands(rng, bits, sh.nr, sh.nd, sh.s)
	}
	rows, dkvs = quantOperands(rng, bits, sh.nr, sh.nd, sh.s, kind == "quant-top")
	switch kind {
	case "row-at-scale":
		rows[rng.Intn(len(rows))] = 1 << uint(bits)
	case "weight-at-minus-scale":
		dkvs[rng.Intn(len(dkvs))] = -1 << uint(bits)
	}
	return rows, dkvs
}

// belowScale reports whether every lane of a tile is below 2^B in
// magnitude: always so for the quantizer kinds, never for the kinds
// with a lane at scale, and by chance for random draws.
func belowScale(rows, dkvs []int, bits int) bool {
	for _, v := range slices.Concat(rows, dkvs) {
		if max(v, -v) >= 1<<uint(bits) {
			return false
		}
	}
	return true
}

// simdTakes reports whether DotTile would count the tile on the SIMD
// kernel: the terms simdFits checks, then the rows' range.
func simdTakes(e *Engine, rows, dkvs []int, s int) bool {
	var wor uint64
	for _, w := range dkvs {
		wor |= uint64(max(w, -w))
	}
	return e.simdFits(len(rows)/s, s, wor) && e.packRows16(rows, len(rows)/s, s)
}

// TestDotRowsMatchesSequentialDot: every row of a DotTile must equal
// sequential Dot calls per (row, DKV) bit for bit, on the noisy and the
// ideal-ADC packed engine at every precision B in 1..12, over
// consecutive calls on one engine, on the shapes of tileShapes with
// every operand kind of tileOperandKinds. The SIMD kernel must take
// exactly the tiles with every lane below 2^B (the quantizer's range) at
// B <= 8 with at least simdMinRows rows (where the CPU has it): at B = 8
// it must take the VDPE size one below the 16-bit sum bound (N = 258:
// 258*254 < 2^16) but not the one past it (N = 259), whose quant-top
// chunk sums would overflow 16 bits.
// Beyond the paper grid, a config whose N*2^B reaches 2^21 must take
// the portable kernel's two-field layout (a full-scale chunk would
// overflow a 21-bit field) and one whose N*2^B reaches 2^32 the
// one-field layout. TestDotTilePortableKernel runs it again with the
// SIMD kernel off.
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
		for _, n := range []int{258, 259} {
			bound := testCfg(8, ideal)
			bound.N, bound.ChannelSpacingNM = n, 0.1 // 500 channels
			points = append(points, point{bound, 3, []tileShape{{17, 3, n}, {5, 2, 2*n + 3}}})
		}
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
			for _, kind := range tileOperandKinds {
				rows, dkvs := kindOperands(rng, kind, cfg.Bits, sh)
				where := fmt.Sprintf("B=%d N=%d ideal=%v %s %dx%dx%d", cfg.Bits, cfg.N, cfg.IdealADC, kind, sh.nr, sh.nd, sh.s)
				wantSIMD := useSIMD && belowScale(rows, dkvs, cfg.Bits) && cfg.Bits <= 8 && sh.nr >= simdMinRows && cfg.N != 259
				if got := simdTakes(tiled, rows, dkvs, sh.s); got != wantSIMD {
					t.Fatalf("%s: SIMD kernel takes the tile: %v, want %v", where, got, wantSIMD)
				}
				out := make([]int, sh.nr*sh.nd)
				tiled.DotTile(rows, dkvs, sh.s, out)
				for j := 0; j < sh.nd; j++ {
					for i := 0; i < sh.nr; i++ {
						want := serial.Dot(rows[i*sh.s:(i+1)*sh.s], dkvs[j*sh.s:(j+1)*sh.s])
						if got := out[j*sh.nr+i]; got != want {
							t.Fatalf("%s: row %d DKV %d: DotTile %d != Dot %d", where, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// forcePortable turns the SIMD kernel off for the rest of the test.
func forcePortable(t *testing.T) {
	was := useSIMD
	useSIMD = false
	t.Cleanup(func() { useSIMD = was })
}

// TestDotTilePortableKernel runs the tile equivalence tier — the sweep,
// order freedom, the operand contract and FuzzDotTile's seeds — with the
// SIMD kernel off, so the portable kernel stays pinned on hosts that
// have AVX2.
func TestDotTilePortableKernel(t *testing.T) {
	forcePortable(t)
	t.Run("sweep", TestDotRowsMatchesSequentialDot)
	t.Run("order-free", TestDotRowsOrderFree)
	t.Run("operand-contract", TestDotRowsOperandContract)
	for i, seed := range fuzzDotTileSeeds() {
		if err := checkDotTile(seed); err != nil {
			t.Errorf("fuzz seed %d: %v", i, err)
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

// TestEngineADCRange: New fails closed, as core.NewVDPC does, on an
// ADCMAPEPct outside [0, core.MaxADCMAPEPct] and on a VDPE size whose PCA
// count could overflow the converter's Q24 product, naming the field;
// the paper point builds.
func TestEngineADCRange(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*core.Config)
		field string // "" accepts
	}{
		{"paper", func(c *core.Config) { *c = core.DefaultConfig() }, ""},
		{"mape-max", func(c *core.Config) { c.ADCMAPEPct = core.MaxADCMAPEPct }, ""},
		{"mape-negative", func(c *core.Config) { c.ADCMAPEPct = -0.1 }, "ADCMAPEPct"},
		{"mape-above", func(c *core.Config) { c.ADCMAPEPct = 21 }, "ADCMAPEPct"},
		{"overflow", func(c *core.Config) {
			c.Bits, c.N, c.ChannelSpacingNM = 12, 1<<40, 1e-12
		}, "N="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(8, false)
			tc.edit(&cfg)
			_, err := New(cfg)
			if (err == nil) != (tc.field == "") || err != nil && !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("err %v, want one naming %q", err, tc.field)
			}
			if _, cerr := core.NewVDPC(cfg); (cerr == nil) != (err == nil) {
				t.Fatalf("New err %v, core.NewVDPC err %v", err, cerr)
			}
		})
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

// TestScratchOwnsCacheLines: two engines built one after another, as a
// serving pool builds them, never write to one cache line — neither the
// scratch slice headers every DotTile or DotConv call writes nor the
// buffers behind them, of either kernel and of DotConv's gather (the
// shifted planes and the lane offsets) — so pooled engines running on
// two cores do not share a line. Nor does one engine write to a line of
// the other's prepared weight rows, which its tiles read.
func TestScratchOwnsCacheLines(t *testing.T) {
	type span struct{ lo, hi uintptr }
	add := func(spans []span, p unsafe.Pointer, n int) []span {
		if n > 0 {
			spans = append(spans, span{uintptr(p), uintptr(p) + uintptr(n)})
		}
		return spans
	}
	dkvSpans := func(spans []span, d *dkvSet) []span {
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(d.lanes)), len(d.lanes)*int(unsafe.Sizeof(lane{})))
		return add(spans, unsafe.Pointer(unsafe.SliceData(d.mix)), 8*len(d.mix))
	}
	lineSet := func(spans []span) map[uintptr]bool {
		set := map[uintptr]bool{}
		for _, s := range spans {
			for l := s.lo / cacheLine; l <= (s.hi-1)/cacheLine; l++ {
				set[l] = true
			}
		}
		return set
	}
	written := func(e *Engine) map[uintptr]bool {
		spans := []span{{uintptr(unsafe.Pointer(&e.dk)), uintptr(unsafe.Pointer(&e.sums16)) + unsafe.Sizeof(e.sums16)}}
		spans = dkvSpans(spans, &e.dk)
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.rowKeys)), 8*len(e.rowKeys))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.p16)), len(e.p16))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.offs)), 8*len(e.offs))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.xs)), 8*len(e.xs))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.x16)), 8*len(e.x16))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.sums)), len(e.sums)*int(unsafe.Sizeof(fieldSums{})))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.counts)), 8*len(e.counts))
		spans = add(spans, unsafe.Pointer(unsafe.SliceData(e.sums16)), 2*len(e.sums16))
		return lineSet(spans)
	}
	cfg := testCfg(8, false)
	rng := rand.New(rand.NewSource(12))
	// Quantizer-range operands take the SIMD kernel where the CPU has
	// one; a lane at 2^B sends a tile to the portable kernel. The conv
	// tile takes DotConv's gather.
	rows, dkvs := quantOperands(rng, cfg.Bits, 17, 3, 20, false)
	full, fdkvs := fullScaleOperands(rng, cfg.Bits, 5, 3, 20)
	tile, cdkvs := convOperands(rng, cfg.Bits, convGeom{c: 2, k: 3, stride: 1, pad: 1, h: 8, w: 8, nd: 3}, "quant")
	var engines [2]*Engine
	var prepared [2]*dkvSet
	for i := range engines {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.DotTile(rows, dkvs, 20, make([]int, 17*3))
		e.DotTile(full, fdkvs, 20, make([]int, 5*3))
		prepared[i] = e.PrepareDKVs(cdkvs, tile.S()).(*dkvSet)
		e.DotConv(tile, cdkvs, prepared[i], make([]int, tile.OH*tile.OW*3))
		if useSIMD && len(e.offs) == 0 {
			t.Fatal("the conv tile did not take DotConv's gather")
		}
		engines[i] = e
	}
	for i, e := range engines {
		mine, other := written(e), written(engines[1-i])
		for l := range lineSet(dkvSpans(nil, prepared[1-i])) {
			other[l] = true
		}
		for l := range mine {
			if other[l] {
				t.Fatalf("engine %d writes to the cache line at %#x, which engine %d uses", i, l*cacheLine, 1-i)
			}
		}
	}
}
