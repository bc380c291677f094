// Package mapper implements the operand side of the "preprocessing and
// mapping unit" of the system-level SCONNA accelerator (Fig. 8): it
// flattens a convolution's input window and kernel into full S = K*K*D
// point vectors, zero-padding out-of-bounds taps, and decomposes them
// into input and kernel vectors (DIVs and DKVs) of at most N points
// (Sec. II-B). quant.ForwardNaive, the reference every quantized
// lowering is pinned against, computes each conv output from these
// vectors.
package mapper

import "fmt"

// Conv describes the convolution being mapped.
type Conv struct {
	InC, H, W int // input tensor shape (CHW)
	OutC      int // kernels
	K         int // kernel spatial size
	Stride    int
	Pad       int
	Depthwise bool
}

// OutSize returns the output spatial size for input size h.
func (c Conv) OutSize(h int) int { return (h+2*c.Pad-c.K)/c.Stride + 1 }

// S returns the flattened kernel size K*K*D.
func (c Conv) S() int {
	if c.Depthwise {
		return c.K * c.K
	}
	return c.K * c.K * c.InC
}

// Validate reports geometry errors.
func (c Conv) Validate() error {
	if c.InC < 1 || c.OutC < 1 || c.K < 1 || c.Stride < 1 || c.Pad < 0 {
		return fmt.Errorf("mapper: invalid conv geometry %+v", c)
	}
	if c.Depthwise && c.InC != c.OutC {
		return fmt.Errorf("mapper: depthwise conv needs InC==OutC, got %d/%d", c.InC, c.OutC)
	}
	if c.OutSize(c.H) < 1 || c.OutSize(c.W) < 1 {
		return fmt.Errorf("mapper: kernel %d does not fit input %dx%d with pad %d", c.K, c.H, c.W, c.Pad)
	}
	return nil
}

// ExtractDIV flattens the input window feeding output position (oy, ox)
// for output channel oc into a vector of length S, zero-padding
// out-of-bounds taps — the DIV the modulation block imprints.
// The input is a quantized activation tensor laid out CHW as integers.
func (c Conv) ExtractDIV(qx []int, oc, oy, ox int) []int {
	out := make([]int, 0, c.S())
	icLo, icHi := 0, c.InC
	if c.Depthwise {
		icLo, icHi = oc, oc+1
	}
	for ic := icLo; ic < icHi; ic++ {
		for ky := 0; ky < c.K; ky++ {
			iy := oy*c.Stride + ky - c.Pad
			for kx := 0; kx < c.K; kx++ {
				ix := ox*c.Stride + kx - c.Pad
				if iy < 0 || iy >= c.H || ix < 0 || ix >= c.W {
					out = append(out, 0)
					continue
				}
				out = append(out, qx[(ic*c.H+iy)*c.W+ix])
			}
		}
	}
	return out
}

// ExtractDKV flattens kernel oc of the quantized weight tensor
// [OutC][WC][K][K] into its S-point kernel vector.
func (c Conv) ExtractDKV(qw []int, oc int) []int {
	wc := c.InC
	if c.Depthwise {
		wc = 1
	}
	ksz := wc * c.K * c.K
	out := make([]int, ksz)
	copy(out, qw[oc*ksz:(oc+1)*ksz])
	return out
}

// Chunk is one DIV/DKV decomposition slice: points [Lo, Hi) of the
// full S-point vectors.
type Chunk struct {
	Index  int
	Lo, Hi int
}

// Chunks decomposes an S-point vector into ceil(S/n) chunks of at most n
// points (Sec. II-B's C = Ceil(S/N)).
func Chunks(s, n int) []Chunk {
	if n < 1 {
		panic(fmt.Sprintf("mapper: chunk size %d", n))
	}
	var out []Chunk
	idx := 0
	for lo := 0; lo < s; lo += n {
		hi := lo + n
		if hi > s {
			hi = s
		}
		out = append(out, Chunk{Index: idx, Lo: lo, Hi: hi})
		idx++
	}
	return out
}
