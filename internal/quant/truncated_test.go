package quant

import "repro/internal/tensor"

// ForwardTruncated runs quantized inference with the conv reference the
// lowering used before it took full windows: each output's DIV and DKV
// skip the taps that fall in the padding instead of carrying them as
// zeros. On engines whose result depends only on nonzero lanes (exact
// arithmetic, an ideal ADC) it must agree with ForwardNaive bit for bit,
// which pins those engines' outputs across the switch to full windows.
// Test-only: exported for the external test package.
func (q *Network) ForwardTruncated(x *tensor.T, engine DotEngine) *tensor.T {
	return q.forwardNaiveWith(x, engine, (*QConv2D).forwardTruncated)
}

// forwardTruncated is the padding-truncating quantized convolution loop,
// kept verbatim from the earlier reference.
func (c *QConv2D) forwardTruncated(x *tensor.T, engine DotEngine, qmax int) *tensor.T {
	h, w := x.Shape[1], x.Shape[2]
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	qx := quantizeActs(nil, x.Data, c.InScale, qmax)
	out := tensor.New(c.OutC, oh, ow)
	wc := c.InC
	if c.Depthwise {
		wc = 1
	}
	ksz := wc * c.K * c.K
	div := make([]int, 0, ksz)
	dkv := make([]int, 0, ksz)
	for oc := 0; oc < c.OutC; oc++ {
		kbase := oc * ksz
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				div = div[:0]
				dkv = dkv[:0]
				icLo, icHi := 0, c.InC
				if c.Depthwise {
					icLo, icHi = oc, oc+1
				}
				for ic := icLo; ic < icHi; ic++ {
					wci := ic - icLo
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							wv := c.W[kbase+(wci*c.K+ky)*c.K+kx]
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue // zero-pad contributes nothing
							}
							div = append(div, qx[(ic*h+iy)*w+ix])
							dkv = append(dkv, wv)
						}
					}
				}
				acc := engine.Dot(div, dkv)
				out.Set(float32(acc)*c.InScale*c.WScale+c.Bias[oc], oc, oy, ox)
			}
		}
	}
	return out
}
