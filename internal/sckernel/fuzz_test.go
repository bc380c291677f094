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
// byte values name the extremes (full scale, and just out of range on
// either side), every other value lands inside the operand range — a
// row lane in [0, l], a DKV lane in [-l, l].
func fuzzLane(b byte, l int, weight bool) int {
	switch {
	case b == 0xff:
		return l
	case b == 0xfe:
		return l + 1
	case b == 0xfd && weight:
		return -l
	case b == 0xfd:
		return -1
	case b == 0xfc && weight:
		return -l - 1
	case weight:
		return int(b)%(2*l+1) - l
	}
	return int(b) % (l + 1)
}

// fuzzTile decodes a tile from data: header bytes choose B in 1..12, a
// VDPE size up to 4096 on a DWDM grid wide enough for it, 1..12 rows,
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
	nr, nd := 1+int(h[3])%12, 1+int(h[4])%6
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

// FuzzDotTile: on any decoded configuration and tile, DotTile equals
// the per-(row, DKV) Dot loop bit for bit, or both panic. The checked-in
// corpus (testdata/fuzz/FuzzDotTile) holds full-scale tiles whose psum
// chunk fills a 21-bit field to within 2^B of its cap (N*2^B just under
// 2^21) and one just past it (N*2^B = 2^21, the two-field layout), and
// out-of-range lanes: a negative row lane, a weight past -2^B, and a
// lane past 2^B on both sides.
func FuzzDotTile(f *testing.F) {
	f.Add(fuzzSeed(8, 64, 9, 4, 9, false, 3, 0, 200, 17, 0, 0, 255, 90))
	f.Add(fuzzSeed(8, 64, 5, 3, 72, true, 0, 1, 2, 250, 128))
	f.Add(fuzzSeed(4, 8, 7, 5, 30, false, 0xfd, 9, 0xfc))
	f.Add(fuzzSeed(12, 16, 4, 2, 40, false, 0xff, 0x10))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, rows, dkvs, s := fuzzTile(data)
		tiled, err := New(cfg)
		if err != nil {
			t.Fatalf("B=%d N=%d: %v", cfg.Bits, cfg.N, err)
		}
		serial, err := New(cfg)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("%s: DotTile panic %v, Dot loop panic %v", where, tilePanic, dotPanic)
		}
		if tilePanic != nil {
			return
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: row %d DKV %d: DotTile %d != Dot %d", where, k%nr, k/nr, got[k], want[k])
			}
		}
	})
}
