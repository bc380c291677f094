package sckernel

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
)

// fuzzHeader is the byte length of FuzzDotTile's decoded header: bits,
// VDPE size, row count, DKV count, lane count and ADC mode.
const fuzzHeader = 9

// fuzzLane decodes one operand lane from b at stream scale l: the top
// byte values name the extremes (full scale, the quantizer's top l-1,
// and just out of range on either side), every other value lands inside
// the operand range — a row lane in [0, l], a DKV lane in [-l, l]. A
// DKV byte's low bit is its sign and b>>1, in [0, 127], spreads over the
// magnitudes [0, l], so weights of both signs and of every scale occur
// at every B.
func fuzzLane(b byte, l int, weight bool) int {
	switch {
	case b == 0xff:
		return l
	case b == 0xfb:
		return l - 1
	case b == 0xfe:
		return l + 1
	case b == 0xfd && weight:
		return -l
	case b == 0xfd:
		return -1
	case b == 0xfc && weight:
		return -l - 1
	case weight:
		m := int(b>>1) * (l + 1) >> 7
		if b&1 == 1 {
			return -m
		}
		return m
	}
	return int(b) % (l + 1)
}

// fuzzTile decodes a tile from data: header bytes choose B in 1..12, a
// VDPE size up to 4096 on a DWDM grid wide enough for it, 1..40 rows,
// 1..6 DKVs, 1..4096 lanes and the ADC mode; the remaining bytes, cycled
// (all zero when there are none), give the rows' lanes and then the
// DKVs'.
func fuzzTile(data []byte) (cfg core.Config, rows, dkvs []int, s int) {
	var h [fuzzHeader]byte
	copy(h[:], data)
	ops := data[min(len(data), fuzzHeader):]
	cfg = testCfg(1+int(h[0])%12, h[8]&1 == 1)
	cfg.N = 1 + int(binary.LittleEndian.Uint16(h[1:3]))%4096
	cfg.ChannelSpacingNM = 0.01 // 5000 channels on the 50 nm FSR
	nr, nd := 1+int(h[3])%40, 1+int(h[4])%6
	s = 1 + int(binary.LittleEndian.Uint16(h[5:7]))%4096
	l := 1 << uint(cfg.Bits)
	next := 0
	lane := func(weight bool) int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[next%len(ops)]
		next++
		return fuzzLane(b, l, weight)
	}
	rows, dkvs = make([]int, nr*s), make([]int, nd*s)
	for i := range rows {
		rows[i] = lane(false)
	}
	for i := range dkvs {
		dkvs[i] = lane(true)
	}
	return cfg, rows, dkvs, s
}

// fuzzSeed encodes a header and operand bytes as FuzzDotTile input.
func fuzzSeed(bits, n, nr, nd, s int, ideal bool, ops ...byte) []byte {
	h := make([]byte, fuzzHeader, fuzzHeader+len(ops))
	h[0] = byte(bits - 1)
	binary.LittleEndian.PutUint16(h[1:3], uint16(n-1))
	h[3], h[4] = byte(nr-1), byte(nd-1)
	binary.LittleEndian.PutUint16(h[5:7], uint16(s-1))
	if ideal {
		h[8] = 1
	}
	return append(h, ops...)
}

// catch runs f and returns its panic value, nil when it returns.
func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// tileSeed encodes a FuzzDotTile input whose row lanes cycle rowPat
// and whose DKV lanes cycle dkvPat, each spelled out lane by lane; at
// (when not nil) then overwrites single operand bytes, indexed from the
// first row lane.
func tileSeed(bits, n, nr, nd, s int, ideal bool, rowPat, dkvPat []byte, at map[int]byte) []byte {
	ops := make([]byte, 0, (nr+nd)*s)
	for i := range nr * s {
		ops = append(ops, rowPat[i%len(rowPat)])
	}
	for i := range nd * s {
		ops = append(ops, dkvPat[i%len(dkvPat)])
	}
	for i, b := range at {
		ops[i] = b
	}
	return fuzzSeed(bits, n, nr, nd, s, ideal, ops...)
}

// fuzzDotTileSeeds are FuzzDotTile's in-code seeds, beside its
// checked-in corpus: tiles at the paper point; row counts 1, 15, 16, 17
// and 33 around the SIMD kernel's 16-row groups, with odd DKV counts;
// quantizer-range tiles with every lane at 2^B-1 (0xfb), and with one
// row lane at 2^B (0xff) or one weight at -2^B (0xfd); B = 8 VDPE sizes
// one below (258) and one past (259) the SIMD kernel's 16-bit sum
// bound, full chunks at the top of the range; and B from 9 to 12,
// beyond the SIMD kernel's precision. At B = 8 a generic byte b decodes
// to the row lane b and to the weight b with its low bit cleared,
// negated when that bit is set, so the quantizer-range weights below
// decode to -248, 200, 255, -166, -16, 255 and 128: both signs, none at
// ±2^B.
func fuzzDotTileSeeds() [][]byte {
	rowPat := []byte{0, 7, 130, 0, 41, 251, 9, 0, 0, 60} // zeros as a ReLU leaves them
	dkvPat := []byte{0xf9, 200, 0xfb, 0xa7, 17, 0xfb, 128}
	top := []byte{0xfb}
	seeds := [][]byte{
		fuzzSeed(8, 64, 9, 4, 9, false, 3, 0, 200, 17, 0, 0, 255, 90),
		fuzzSeed(8, 64, 5, 3, 72, true, 0, 1, 2, 250, 128),
		fuzzSeed(4, 8, 7, 5, 30, false, 0xfd, 9, 0xfc),
		fuzzSeed(12, 16, 4, 2, 40, false, 0xff, 0x10),
		{},
	}
	for _, nr := range []int{1, 15, 16, 17, 33} {
		seeds = append(seeds, tileSeed(8, 64, nr, 3, 36, nr%2 == 0, rowPat, dkvPat, nil))
	}
	seeds = append(seeds,
		tileSeed(8, 64, 17, 5, 72, false, top, top, nil),
		tileSeed(8, 64, 20, 3, 36, false, rowPat, dkvPat, map[int]byte{17*36 + 5: 0xff}),
		tileSeed(8, 64, 16, 3, 36, false, rowPat, dkvPat, map[int]byte{16*36 + 2*36 + 30: 0xfd}),
		tileSeed(8, 258, 17, 3, 258, false, top, top, nil),
		tileSeed(8, 259, 17, 3, 259, false, top, top, nil),
	)
	for bits := 9; bits <= 12; bits++ {
		seeds = append(seeds, tileSeed(bits, 64, 17, 3, 72, bits%2 == 0, rowPat, top, nil))
	}
	return seeds
}

// checkDotTile decodes data as a tile and reports where DotTile and the
// per-(row, DKV) Dot loop disagree: in a result, or in whether they
// panic.
func checkDotTile(data []byte) error {
	cfg, rows, dkvs, s := fuzzTile(data)
	tiled, err := New(cfg)
	if err != nil {
		return fmt.Errorf("B=%d N=%d: %v", cfg.Bits, cfg.N, err)
	}
	serial, err := New(cfg)
	if err != nil {
		return err
	}
	nr, nd := len(rows)/s, len(dkvs)/s
	got, want := make([]int, nr*nd), make([]int, nr*nd)
	tilePanic := catch(func() { tiled.DotTile(rows, dkvs, s, got) })
	dotPanic := catch(func() {
		for j := range nd {
			for i := range nr {
				want[j*nr+i] = serial.Dot(rows[i*s:(i+1)*s], dkvs[j*s:(j+1)*s])
			}
		}
	})
	where := fmt.Sprintf("B=%d N=%d ideal=%v %dx%dx%d", cfg.Bits, cfg.N, cfg.IdealADC, nr, nd, s)
	if (tilePanic == nil) != (dotPanic == nil) {
		return fmt.Errorf("%s: DotTile panic %v, Dot loop panic %v", where, tilePanic, dotPanic)
	}
	if tilePanic != nil {
		return nil
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("%s: row %d DKV %d: DotTile %d != Dot %d", where, k%nr, k/nr, got[k], want[k])
		}
	}
	return nil
}

// FuzzDotTile: on any decoded configuration and tile, DotTile equals
// the per-(row, DKV) Dot loop bit for bit, or both panic. Besides
// fuzzDotTileSeeds, the checked-in corpus (testdata/fuzz/FuzzDotTile)
// holds full-scale tiles whose psum chunk fills a 21-bit field to
// within 2^B of its cap (N*2^B just under 2^21) and one just past it
// (N*2^B = 2^21, the two-field layout), and out-of-range lanes: a
// negative row lane, a weight past -2^B, and a lane past 2^B on both
// sides.
func FuzzDotTile(f *testing.F) {
	for _, seed := range fuzzDotTileSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkDotTile(data); err != nil {
			t.Fatal(err)
		}
	})
}
