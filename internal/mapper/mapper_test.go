package mapper

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestConvGeometry(t *testing.T) {
	c := Conv{InC: 3, H: 8, W: 8, OutC: 4, K: 3, Stride: 1, Pad: 1}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.OutSize(8) != 8 {
		t.Fatal("same-pad out size")
	}
	if c.S() != 27 {
		t.Fatalf("S=%d want 27", c.S())
	}
	dw := Conv{InC: 4, H: 8, W: 8, OutC: 4, K: 3, Stride: 1, Pad: 1, Depthwise: true}
	if dw.S() != 9 {
		t.Fatalf("depthwise S=%d want 9", dw.S())
	}
}

func TestConvValidateErrors(t *testing.T) {
	bad := []Conv{
		{InC: 0, H: 4, W: 4, OutC: 1, K: 1, Stride: 1},
		{InC: 2, H: 4, W: 4, OutC: 3, K: 3, Stride: 1, Depthwise: true},
		{InC: 1, H: 2, W: 2, OutC: 1, K: 5, Stride: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestChunksPartition(t *testing.T) {
	f := func(rawS, rawN uint8) bool {
		s := int(rawS)%500 + 1
		n := int(rawN)%200 + 1
		chunks := Chunks(s, n)
		want := (s + n - 1) / n
		if len(chunks) != want {
			return false
		}
		covered := 0
		for i, ch := range chunks {
			if ch.Index != i || ch.Hi <= ch.Lo || ch.Hi-ch.Lo > n {
				return false
			}
			if ch.Lo != covered {
				return false
			}
			covered = ch.Hi
		}
		return covered == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: extracting DIV/DKV chunks and computing them on a
// functional VDPE reproduces the exact convolution output (within
// stream quantization) after psum reduction.
func TestPlanComputesConvolution(t *testing.T) {
	conv := Conv{InC: 2, H: 5, W: 5, OutC: 3, K: 3, Stride: 1, Pad: 1}
	if err := conv.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	qx := make([]int, conv.InC*conv.H*conv.W)
	for i := range qx {
		qx[i] = rng.Intn(65)
	}
	qw := make([]int, conv.OutC*conv.InC*conv.K*conv.K)
	for i := range qw {
		qw[i] = rng.Intn(129) - 64
	}

	ccfg := core.DefaultConfig()
	ccfg.Bits = 6
	ccfg.N = 8 // force multi-chunk decomposition: S=18 -> C=3
	ccfg.IdealADC = true
	vdpe, err := core.NewVDPE(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := len(Chunks(conv.S(), ccfg.N)); c != 3 {
		t.Fatalf("C=%d want 3", c)
	}

	oy, ox := 2, 3
	for oc := 0; oc < conv.OutC; oc++ {
		div := conv.ExtractDIV(qx, oc, oy, ox)
		dkv := conv.ExtractDKV(qw, oc)
		if len(div) != conv.S() || len(dkv) != conv.S() {
			t.Fatal("extract sizes wrong")
		}
		// psum reduction over the plan's chunks.
		sum := 0
		for _, ch := range Chunks(conv.S(), ccfg.N) {
			res, err := vdpe.Dot(div[ch.Lo:ch.Hi], dkv[ch.Lo:ch.Hi])
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Est
		}
		exact := core.ExactDot(div, dkv)
		tol := float64(conv.S() * 64) // one stream bit per lane
		if d := float64(sum - exact); d > tol || d < -tol {
			t.Fatalf("kernel %d: sum=%d exact=%d", oc, sum, exact)
		}
	}
}

func TestExtractDIVZeroPads(t *testing.T) {
	conv := Conv{InC: 1, H: 3, W: 3, OutC: 1, K: 3, Stride: 1, Pad: 1}
	qx := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	div := conv.ExtractDIV(qx, 0, 0, 0) // top-left corner: 5 taps padded
	zeros := 0
	for _, v := range div {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 5 {
		t.Fatalf("corner window should have >=5 padded zeros, got %d (%v)", zeros, div)
	}
	if div[4] != 1 { // center tap maps to input (0,0)
		t.Fatalf("center tap %d want 1 (%v)", div[4], div)
	}
}

func TestExtractDIVDepthwise(t *testing.T) {
	conv := Conv{InC: 2, H: 2, W: 2, OutC: 2, K: 1, Stride: 1, Pad: 0, Depthwise: true}
	qx := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if got := conv.ExtractDIV(qx, 1, 0, 1); len(got) != 1 || got[0] != 6 {
		t.Fatalf("depthwise DIV=%v want [6]", got)
	}
}
