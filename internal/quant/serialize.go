package quant

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// artifactSchema tags the quantized-model artifact wire format. Unlike a
// float weights snapshot (nn.Save), an artifact is self-describing: it
// carries the full quantized architecture — layer kinds, dimensions,
// integer weights, scales — so a server can load and serve a model
// without reconstructing (or retraining) the float network it came from.
// Bump the tag whenever a serialized field is added, removed, reordered
// or reinterpreted; Load rejects unknown schemas instead of guessing.
const artifactSchema = "repro/quant.Artifact@v1"

// artifact is the gob wire format of a quantized model.
type artifact struct {
	Schema string
	Bits   int
	Layers []layerBlob
}

// layerBlob is one serialized qlayer. Kind selects which fields are
// meaningful; the engine-free layers (relu/pool/gap/flat) carry none.
type layerBlob struct {
	Kind string // "conv", "dense", "relu", "pool", "gap", "flat"

	// Convolution geometry (Kind == "conv").
	InC, OutC, K, Stride, Pad int
	Depthwise                 bool

	// Dense geometry (Kind == "dense").
	In, Out int

	// Shared parameter payload (conv and dense).
	W       []int
	Bias    []float32
	WScale  float32
	InScale float32
}

const (
	kindConv  = "conv"
	kindDense = "dense"
	kindReLU  = "relu"
	kindPool  = "pool"
	kindGAP   = "gap"
	kindFlat  = "flat"
)

// kind names the layer for serialization and digesting.
func (l qlayer) kind() string {
	switch {
	case l.conv != nil:
		return kindConv
	case l.dense != nil:
		return kindDense
	case l.relu:
		return kindReLU
	case l.pool:
		return kindPool
	case l.gap:
		return kindGAP
	case l.flat:
		return kindFlat
	}
	return "" // unreachable: Quantize and Load only build the six kinds
}

// Save writes the quantized model to w as a self-describing artifact.
// Load reconstructs an identical network — same layer kinds, dimensions,
// integer weights and scales — so classification through the loaded
// model is byte-identical to the original (pinned by the round-trip
// tests).
func (q *Network) Save(w io.Writer) error {
	a := artifact{Schema: artifactSchema, Bits: q.Bits}
	for _, l := range q.layers {
		blob := layerBlob{Kind: l.kind()}
		switch {
		case l.conv != nil:
			c := l.conv
			blob.InC, blob.OutC, blob.K, blob.Stride, blob.Pad = c.InC, c.OutC, c.K, c.Stride, c.Pad
			blob.Depthwise = c.Depthwise
			blob.W = append([]int(nil), c.W...)
			blob.Bias = append([]float32(nil), c.Bias...)
			blob.WScale, blob.InScale = c.WScale, c.InScale
		case l.dense != nil:
			d := l.dense
			blob.In, blob.Out = d.In, d.Out
			blob.W = append([]int(nil), d.W...)
			blob.Bias = append([]float32(nil), d.Bias...)
			blob.WScale, blob.InScale = d.WScale, d.InScale
		}
		a.Layers = append(a.Layers, blob)
	}
	if err := gob.NewEncoder(w).Encode(a); err != nil {
		return fmt.Errorf("quant: encoding artifact: %w", err)
	}
	return nil
}

// SaveFile writes the artifact to path via a temp-file + rename in the
// same directory, so a crash mid-write never leaves a truncated artifact
// behind (the same convention as nn.SaveFile and the disk cache).
func (q *Network) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".quant-*")
	if err != nil {
		return fmt.Errorf("quant: saving artifact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := q.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("quant: saving artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("quant: saving artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("quant: saving artifact: %w", err)
	}
	return nil
}

// Load reconstructs a quantized model saved by Save, validating the
// schema tag and every dimension before building layers — a corrupt or
// foreign file fails here, never inside a forward pass.
func Load(r io.Reader) (*Network, error) {
	var a artifact
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("quant: decoding artifact: %w", err)
	}
	if a.Schema != artifactSchema {
		return nil, fmt.Errorf("quant: artifact schema %q, want %q", a.Schema, artifactSchema)
	}
	if a.Bits < MinBits || a.Bits > MaxBits {
		return nil, fmt.Errorf("quant: artifact precision %d outside [%d,%d]", a.Bits, MinBits, MaxBits)
	}
	qmax := int(1)<<uint(a.Bits) - 1
	qn := &Network{Bits: a.Bits}
	for i, blob := range a.Layers {
		switch blob.Kind {
		case kindConv:
			c := &QConv2D{
				InC: blob.InC, OutC: blob.OutC, K: blob.K, Stride: blob.Stride, Pad: blob.Pad,
				Depthwise: blob.Depthwise,
				W:         blob.W, Bias: blob.Bias,
				WScale: blob.WScale, InScale: blob.InScale,
			}
			if err := validateConv(c, qmax); err != nil {
				return nil, fmt.Errorf("quant: artifact layer %d: %w", i, err)
			}
			qn.layers = append(qn.layers, qlayer{conv: c})
		case kindDense:
			d := &QDense{
				In: blob.In, Out: blob.Out,
				W: blob.W, Bias: blob.Bias,
				WScale: blob.WScale, InScale: blob.InScale,
			}
			if err := validateDense(d, qmax); err != nil {
				return nil, fmt.Errorf("quant: artifact layer %d: %w", i, err)
			}
			qn.layers = append(qn.layers, qlayer{dense: d})
		case kindReLU:
			qn.layers = append(qn.layers, qlayer{relu: true})
		case kindPool:
			qn.layers = append(qn.layers, qlayer{pool: true})
		case kindGAP:
			qn.layers = append(qn.layers, qlayer{gap: true})
		case kindFlat:
			qn.layers = append(qn.layers, qlayer{flat: true})
		default:
			return nil, fmt.Errorf("quant: artifact layer %d has unknown kind %q", i, blob.Kind)
		}
	}
	return qn, nil
}

// LoadFile reconstructs a quantized model saved by SaveFile (or Save)
// from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("quant: loading artifact: %w", err)
	}
	defer f.Close()
	return Load(f)
}

func validateConv(c *QConv2D, qmax int) error {
	if c.InC < 1 || c.OutC < 1 || c.K < 1 || c.Stride < 1 || c.Pad < 0 {
		return fmt.Errorf("conv geometry %dx%d k=%d s=%d p=%d invalid", c.InC, c.OutC, c.K, c.Stride, c.Pad)
	}
	wc := c.InC
	if c.Depthwise {
		if c.InC != c.OutC {
			return fmt.Errorf("depthwise conv with InC %d != OutC %d", c.InC, c.OutC)
		}
		wc = 1
	}
	if !isProduct(len(c.W), c.OutC, wc, c.K, c.K) {
		return fmt.Errorf("conv carries %d weights, want %dx%dx%dx%d", len(c.W), c.OutC, wc, c.K, c.K)
	}
	if len(c.Bias) != c.OutC {
		return fmt.Errorf("conv carries %d biases, want %d", len(c.Bias), c.OutC)
	}
	if err := validateWeightRange(c.W, qmax); err != nil {
		return err
	}
	return validateEpilogue(c.WScale, c.InScale, c.Bias)
}

func validateDense(d *QDense, qmax int) error {
	if d.In < 1 || d.Out < 1 {
		return fmt.Errorf("dense geometry %dx%d invalid", d.In, d.Out)
	}
	if !isProduct(len(d.W), d.Out, d.In) {
		return fmt.Errorf("dense carries %d weights, want %dx%d", len(d.W), d.Out, d.In)
	}
	if len(d.Bias) != d.Out {
		return fmt.Errorf("dense carries %d biases, want %d", len(d.Bias), d.Out)
	}
	if err := validateWeightRange(d.W, qmax); err != nil {
		return err
	}
	return validateEpilogue(d.WScale, d.InScale, d.Bias)
}

// isProduct reports whether n equals the product of dims (each >= 1).
// It divides n down instead of multiplying the dims up, so a product
// that would overflow int — and could wrap to len(W) — never matches.
func isProduct(n int, dims ...int) bool {
	for _, d := range dims {
		if n%d != 0 {
			return false
		}
		n /= d
	}
	return n == 1
}

// validateWeightRange enforces the hardware contract |w| <= 2^B - 1
// (Quantize clamps to it): a SCONNA engine rejects out-of-range
// operands with a panic at request time, so an over-range artifact must
// die here at load, never inside a serving worker.
func validateWeightRange(w []int, qmax int) error {
	for i, v := range w {
		if v > qmax || v < -qmax {
			return fmt.Errorf("weight %d is %d, outside the %d-bit magnitude range [-%d, %d]",
				i, v, bitsFor(qmax), qmax, qmax)
		}
	}
	return nil
}

// bitsFor recovers B from qmax = 2^B - 1 for error messages.
func bitsFor(qmax int) int {
	b := 0
	for v := qmax; v > 0; v >>= 1 {
		b++
	}
	return b
}

// validateEpilogue enforces what the dequantizing epilogue relies on:
// positive finite scales and finite biases make dequantization
// non-decreasing in the accumulator, which pooling on the accumulators
// (ForwardBatch) needs to equal pooling the dequantized values.
func validateEpilogue(wScale, inScale float32, bias []float32) error {
	if err := validateScales(wScale, inScale); err != nil {
		return err
	}
	for i, b := range bias {
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return fmt.Errorf("bias %d is %v, not finite", i, b)
		}
	}
	return nil
}

func validateScales(wScale, inScale float32) error {
	for _, s := range []struct {
		name string
		v    float32
	}{{"weight", wScale}, {"input", inScale}} {
		if !(s.v > 0) || math.IsInf(float64(s.v), 0) {
			return fmt.Errorf("%s scale %v outside (0, +Inf)", s.name, s.v)
		}
	}
	return nil
}
