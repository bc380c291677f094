package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// poolSize is how many distinct inputs a run cycles through: a multiple
// of batch, so closed-loop POST bodies repeat with period poolSize/batch.
const poolSize = 1024

// modelBits is the fixture's model set: the 8-bit paper point as the
// default model and a 6-bit version of the same network as "alt".
var modelBits = map[string]int{"default": 8, "alt": 6}

// fixture is what every workload boots from and checks against. It is
// built once per invocation and is not timed.
type fixture struct {
	// paths maps model name to its quantized artifact on disk.
	paths map[string]string
	// inputs are the generated images the server sees, flat CHW.
	inputs [][]float32
	// ref[model][i] is the exact-engine class of inputs[i].
	ref map[string][]int
}

// buildFixture trains the sconnaserve in-process model (same recipe:
// width-4 small CNN, 192 examples at seed 11, 4 epochs), quantizes it at
// every modelBits precision over the first 48 examples, saves the
// artifacts under dir, and generates poolSize inputs from seed with
// their exact-engine reference classes computed from the saved
// artifacts.
func buildFixture(dir string, seed int64) (*fixture, error) {
	net := nn.BuildSmallCNN(4, dataset.NumClasses, 11)
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = 11
	examples := dataset.Generate(dcfg, 192)
	net.Train(examples, 4, 16, nn.SGD{LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(11)))

	icfg := dataset.DefaultConfig()
	icfg.Seed = seed
	gen := dataset.Generate(icfg, poolSize)
	fx := &fixture{
		paths:  make(map[string]string),
		inputs: make([][]float32, len(gen)),
		ref:    make(map[string][]int),
	}
	for i, ex := range gen {
		fx.inputs[i] = ex.X.Data
	}
	for name, bits := range modelBits {
		qn, err := quant.Quantize(net, bits, examples[:48])
		if err != nil {
			return nil, fmt.Errorf("quantizing %s at %d bits: %w", name, bits, err)
		}
		path := filepath.Join(dir, name+".qnn")
		if err := qn.SaveFile(path); err != nil {
			return nil, err
		}
		loaded, err := quant.LoadFile(path)
		if err != nil {
			return nil, err
		}
		fx.paths[name] = path
		fx.ref[name] = classify(loaded, fx.inputs)
	}
	return fx, nil
}

// classify runs inputs through qn on the exact engine in batches and
// returns the argmax class of each.
func classify(qn *quant.Network, inputs [][]float32) []int {
	out := make([]int, 0, len(inputs))
	s := quant.NewBatchScratch()
	for lo := 0; lo < len(inputs); lo += batch {
		hi := min(lo+batch, len(inputs))
		for _, l := range qn.ForwardBatch(tensors(inputs[lo:hi]), []quant.DotEngine{quant.ExactEngine{}}, s) {
			out = append(out, l.ArgMax())
		}
	}
	return out
}

func tensors(xs [][]float32) []*tensor.T {
	out := make([]*tensor.T, len(xs))
	for i, x := range xs {
		out[i] = &tensor.T{Shape: []int{1, 16, 16}, Data: x}
	}
	return out
}

// encodeBody encodes the POST carrying n inputs starting at index start
// (cycling through inputs), in the workload's wire format: concatenated
// little-endian float32s for batched POSTs, a JSON {"input": [...]} for
// single-input ones.
func encodeBody(w *workload, inputs [][]float32, start, n int) ([]byte, error) {
	if w.Open {
		return json.Marshal(struct {
			Input []float32 `json:"input"`
		}{inputs[start%len(inputs)]})
	}
	var raw []byte
	for i := 0; i < n; i++ {
		for _, v := range inputs[(start+i)%len(inputs)] {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
	}
	return raw, nil
}
