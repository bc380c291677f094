package quant

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestQuantizeActsMatchesRound: quantizeActs equals the clamped
// int(math.Round(v/scale)) it replaced wherever that is defined (|v/scale|
// < 2^63): at ±0, at k+0.5 and the float32 just below it for every k up
// to qmax, at subnormals and at qmax±0.5. NaN and values past 2^63, where
// the conversion is not defined, quantize to 0 and qmax.
func TestQuantizeActsMatchesRound(t *testing.T) {
	const qmax = 255
	down := func(f float32) float32 { return math.Nextafter32(f, float32(math.Inf(-1))) }
	vals := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40, 0x1p-126,
		qmax - 0.5, down(qmax - 0.5), qmax, qmax + 0.5, down(qmax + 0.5), 1e6, 1e17, -1e17,
	}
	for k := 0; k <= qmax; k++ {
		h := float32(k) + 0.5
		vals = append(vals, h, down(h), -h, -down(h))
	}
	ref := func(v, scale float32) int {
		q := int(math.Round(float64(v / scale)))
		return min(max(q, 0), qmax)
	}
	for _, scale := range []float32{1, 0.0123, 7.5} {
		got := quantizeActs(nil, vals, scale, qmax)
		for i, v := range vals {
			if want := ref(v, scale); got[i] != want {
				t.Errorf("scale %v: quantizeActs(%v) = %d, want %d", scale, v, got[i], want)
			}
		}
	}
	edges := []struct {
		v    float32
		want int
	}{
		{float32(math.NaN()), 0},
		{1e30, qmax},
		{-1e30, 0},
		{float32(math.Inf(1)), qmax},
		{float32(math.Inf(-1)), 0},
		{math.MaxFloat32, qmax},
	}
	for _, e := range edges {
		if got := quantizeActs(nil, []float32{e.v}, 1e-3, qmax)[0]; got != e.want {
			t.Errorf("quantizeActs(%v) = %d, want %d", e.v, got, e.want)
		}
	}
}

// TestForwardHugePixelClampsToTop: a finite input pixel far past the
// calibrated range (1e30, whose v/scale leaves int64) is served as the
// top of the quantizer range, exactly like a pixel at InScale*qmax —
// not as zero.
func TestForwardHugePixelClampsToTop(t *testing.T) {
	for _, qn := range quantNets(t) {
		x := batchInputs(1, 5, 1, 16, 16)[0]
		c := qn.layers[0].conv
		qmax := 1<<qn.Bits - 1
		const at = 5*16 + 6
		top, huge, zero := x.Clone(), x.Clone(), x.Clone()
		top.Data[at] = c.InScale * float32(qmax)
		huge.Data[at] = 1e30
		zero.Data[at] = 0
		if q := quantizeActs(nil, top.Data[at:at+1], c.InScale, qmax)[0]; q != qmax {
			t.Fatalf("InScale*qmax quantizes to %d, want %d", q, qmax)
		}
		want := qn.Forward(top, ExactEngine{})
		assertBitIdentical(t, qn.Forward(huge, ExactEngine{}), want)
		assertBitIdentical(t, qn.ForwardNaive(huge, ExactEngine{}), want)
		if z := qn.Forward(zero, ExactEngine{}); z.Data[0] == want.Data[0] && z.Data[1] == want.Data[1] {
			t.Fatalf("the pixel at %d does not reach the logits: the test cannot tell qmax from 0", at)
		}
	}
}

// TestQuantizeRejectsBadLayers: Quantize fails closed, naming the layer,
// on every conv or dense layer Load would refuse — a calibrated scale
// outside (0, +Inf) or a bias that is not finite — instead of returning
// a network whose artifact Load rejects.
func TestQuantizeRejectsBadLayers(t *testing.T) {
	calib := func(v float32) []nn.Example {
		x := batchInputs(1, 3, 1, 16, 16)[0]
		x.Data[17] = v
		return []nn.Example{{X: x}}
	}
	normal := calib(1)
	cases := []struct {
		name   string
		mutate func(*nn.Network)
		calib  []nn.Example
		errHas string
	}{
		{"infinite input", func(*nn.Network) {}, calib(float32(math.Inf(1))), "layer 0 (conv): input scale +Inf"},
		{"input scale underflows", func(*nn.Network) {}, []nn.Example{{X: scaled(batchInputs(1, 3, 1, 16, 16)[0], 1e-44)}}, "layer 0 (conv): input scale 0"},
		{"infinite weight", func(n *nn.Network) { n.Layers[3].(*nn.Conv2D).Wt.W.Data[2] = float32(math.Inf(-1)) }, normal, "layer 3 (conv): weight scale +Inf"},
		{"NaN bias", func(n *nn.Network) { n.Layers[9].(*nn.Dense).Bias.W.Data[1] = float32(math.NaN()) }, normal, "layer 9 (dense): bias 1 is NaN"},
	}
	for _, c := range cases {
		net := nn.BuildSmallCNN(4, 8, 1)
		c.mutate(net)
		_, err := Quantize(net, 8, c.calib)
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.errHas)
		}
	}
	if _, err := Quantize(nn.BuildSmallCNN(4, 8, 1), 8, normal); err != nil {
		t.Fatalf("a normal network: %v", err)
	}
}

// scaled returns a copy of x with every value multiplied by f.
func scaled(x *tensor.T, f float32) *tensor.T {
	y := x.Clone()
	for i := range y.Data {
		y.Data[i] *= f
	}
	return y
}

// TestPooledEpilogueSignOfZero pins where the epilogue may pool on the
// accumulators. With scales so small that a negative product underflows
// to -0 and a bias of -0, a window whose accumulators are -3, 0, 0, 0
// dequantizes to -0, +0, +0, +0: the float pool keeps the first, -0,
// while the max accumulator dequantizes to +0. So a network that ends
// in the pool must keep the float pool (its logits show the sign),
// while a pool that feeds a global average pool may take the integer
// max (the sum cannot show it); both equal ForwardNaive bit for bit.
func TestPooledEpilogueSignOfZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	conv := &QConv2D{InC: 1, OutC: 1, K: 1, Stride: 1, W: []int{-1}, Bias: []float32{negZero}, WScale: 1e-30, InScale: 1e-30}
	x := tensor.New(1, 2, 2)
	x.Data[0] = 3e-30 // quantizes to 3: accumulators -3, 0, 0, 0
	for _, tc := range []struct {
		name string
		tail []qlayer
		want float32
	}{
		{"pool last", nil, negZero},
		{"pool then GAP", []qlayer{{gap: true}}, 0},
	} {
		qn := &Network{Bits: 8, layers: append([]qlayer{{conv: conv}, {relu: true}, {pool: true}}, tc.tail...)}
		want := qn.ForwardNaive(x, ExactEngine{})
		if math.Float32bits(want.Data[0]) != math.Float32bits(tc.want) {
			t.Fatalf("%s: ForwardNaive = %v, want %v: the case does not exercise the sign of zero", tc.name, want.Data[0], tc.want)
		}
		assertBitIdentical(t, qn.Forward(x, ExactEngine{}), want)
	}
}
