package matmul

// SparseCols is the column-compacted patch matrix of one input: the
// nonzero entries of the Im2col matrix, stored segment by segment where
// segment (pix*inC + ic) holds output pixel pix's in-bounds, nonzero
// activations from input channel ic, in (ky, kx) order — the same
// enumeration order as the dense patch matrix with the zero columns
// compressed out. A pixel's full compacted row is therefore the
// contiguous run Vals[Seg[pix*inC] : Seg[(pix+1)*inC]], channels
// outermost, which is what lets the quantized lowering hand one slice
// per (output channel, pixel) straight to a DotEngine.
type SparseCols struct {
	// Vals holds the nonzero activation values, segment-major.
	Vals []float32
	// Kk holds each value's kernel slot (ky*K + kx) within its channel
	// segment, parallel to Vals.
	Kk []int
	// Seg holds segment offsets: segment s owns Vals[Seg[s]:Seg[s+1]]
	// and Kk likewise. len(Seg) == NumPix()*InC + 1.
	Seg []int
	// InC is the channel count the matrix was gathered for.
	InC int
}

// NNZ returns the number of nonzero entries gathered.
func (sc *SparseCols) NNZ() int { return len(sc.Vals) }

// NumOffs returns the total number of in-bounds window positions across
// all output pixels — the per-channel dense patch-matrix population, and
// the dense-equivalent dot-product workload the accounting plane prices.
func (p *Pos) NumOffs() int { return p.start[p.NumPix()] }

// SparseThreshold is the input zero fraction at which the sparse
// lowering is worth taking: below it the per-entry index bookkeeping
// costs more than the skipped multiply-adds. 0.6 is conservative for
// the float gather kernels, whose crossover sits near 0.5, and keeps
// half-dense inputs on the contiguous dense kernels. Against the
// quantized plane's register-tiled integer GEMM the input-stationary
// sparse path breaks even only near 0.75 (single 3x3 conv, 2-vCPU Xeon),
// so between 0.6 and 0.75 the quantized plane takes the slower path.
const SparseThreshold = 0.6

// Im2colSparse gathers src (CHW, inC x H x W) into the column-compacted
// patch matrix: the dense Im2col with zero activation columns skipped.
// Zero-padded window positions never materialize (they are zeros by
// definition), so only in-bounds nonzero activations survive. dst's
// buffers are reused when capacity suffices; pass nil to allocate. The
// (possibly reallocated) structure is returned.
func (p *Pos) Im2colSparse(dst *SparseCols, src []float32, inC int) *SparseCols {
	if dst == nil {
		dst = &SparseCols{}
	}
	npix := p.NumPix()
	nseg := npix*inC + 1
	if cap(dst.Seg) < nseg {
		dst.Seg = make([]int, nseg)
	} else {
		dst.Seg = dst.Seg[:nseg]
	}
	dst.Vals = dst.Vals[:0]
	dst.Kk = dst.Kk[:0]
	dst.InC = inC
	hw := p.H * p.W
	seg := 0
	dst.Seg[0] = 0
	for pix := 0; pix < npix; pix++ {
		lo, hi := p.start[pix], p.start[pix+1]
		offs, kks := p.off[lo:hi], p.kk[lo:hi]
		for ic := 0; ic < inC; ic++ {
			srcC := src[ic*hw:]
			for i, o := range offs {
				if v := srcC[o]; v != 0 {
					dst.Vals = append(dst.Vals, v)
					dst.Kk = append(dst.Kk, kks[i])
				}
			}
			seg++
			dst.Seg[seg] = len(dst.Vals)
		}
	}
	return dst
}

// ConvForwardSparse computes the same GEMM as ConvForward over the
// column-compacted patch matrix, skipping the zero activation columns.
//
// Bit-identical to ConvForward on the densified matrix for finite
// weights: each per-channel partial accumulates the surviving products
// in the same k-order, and an IEEE accumulator that never holds -0
// (shown below) is unchanged by adding a signed-zero product. The
// skipped products are exactly the ±0 ones (activation zero times a
// finite weight); a partial's intermediate sum starts at +0, stays +0
// under ±0 additions, and a sum of two floats can only round to zero as
// +0 — so no intermediate is ever -0 and dropping the zero addends
// preserves every bit. The `+ 0` on the bias mirrors the dense kernel,
// whose first partial addition normalizes a -0 bias to +0 even when the
// whole row is zero.
func ConvForwardSparse(out, w []float32, sc *SparseCols, outC, npix, k2 int, bias []float32) {
	inC := sc.InC
	rowLen := inC * k2
	for j0 := 0; j0 < npix; j0 += pixTile {
		j1 := min(j0+pixTile, npix)
		for oc := 0; oc < outC; oc++ {
			wrow := w[oc*rowLen : (oc+1)*rowLen]
			orow := out[oc*npix:]
			b0 := bias[oc]
			for j := j0; j < j1; j++ {
				s := b0 + 0
				seg := j * inC
				for ic := 0; ic < inC; ic++ {
					lo, hi := sc.Seg[seg+ic], sc.Seg[seg+ic+1]
					if lo == hi {
						continue
					}
					var p float32
					wseg := wrow[ic*k2:]
					for e := lo; e < hi; e++ {
						p += sc.Vals[e] * wseg[sc.Kk[e]]
					}
					s += p
				}
				orow[j] = s
			}
		}
	}
}

// DepthwiseForwardSparse is ConvForwardSparse's depthwise counterpart:
// channel oc reduces only its own compacted segment, added to the bias
// as one partial — the DepthwiseForward contract with the zero columns
// skipped, bit-identical by the same signed-zero argument.
func DepthwiseForwardSparse(out, w []float32, sc *SparseCols, c, npix, k2 int, bias []float32) {
	for j0 := 0; j0 < npix; j0 += pixTile {
		j1 := min(j0+pixTile, npix)
		for oc := 0; oc < c; oc++ {
			wseg := w[oc*k2 : (oc+1)*k2]
			orow := out[oc*npix:]
			b0 := bias[oc]
			for j := j0; j < j1; j++ {
				lo, hi := sc.Seg[j*c+oc], sc.Seg[j*c+oc+1]
				var p float32
				for e := lo; e < hi; e++ {
					p += sc.Vals[e] * wseg[sc.Kk[e]]
				}
				orow[j] = b0 + p
			}
		}
	}
}
