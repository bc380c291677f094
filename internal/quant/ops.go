package quant

import "repro/internal/opcount"

// OpRecorder builds an op-accounting Recorder shaped for this network:
// one slot per layer, named by layer kind. Attach it to a BatchScratch
// (Ops field) to have the lowered forward pass tally the
// dense-equivalent and executed op counts of every layer; leave Ops nil
// and the hot path pays one branch per layer.
func (q *Network) OpRecorder() *opcount.Recorder {
	names := make([]string, len(q.layers))
	for i, l := range q.layers {
		names[i] = l.kind()
	}
	return opcount.NewRecorder(names)
}

// matCounts prices a quantize-gather-dot-dequantize layer under the
// opcount convention: t dot lanes (t muls, t adds, 2t reads), nin input
// elements quantized (1 mul, 1 read, 1 write each), nout output elements
// produced (1 dequant mul, 1 bias add, 1 write each).
func matCounts(t, nin, nout uint64) opcount.Counts {
	return opcount.Counts{
		Mul: t + nin + nout,
		Add: t + nout,
		Rd:  2*t + nin,
		Wr:  nin + nout,
	}
}

// eltCounts prices an engine-free elementwise/pooling layer.
func eltCounts(add, rd, mul, wr uint64) opcount.Counts {
	return opcount.Counts{Mul: mul, Add: add, Rd: rd, Wr: wr}
}

// recordElt tallies an engine-free layer (ReLU, pool, GAP) whose
// executed work never differs from the dense-equivalent work.
func recordElt(ops *opcount.Recorder, li int, c opcount.Counts) {
	if ops != nil {
		ops.Record(li, c, c)
	}
}

// reluOps prices in-place ReLU over n elements: one comparison (add),
// one read, one write each.
func reluOps(n int) opcount.Counts {
	u := uint64(n)
	return eltCounts(u, u, 0, u)
}

// poolOps prices 2x2 stride-2 max pooling producing m output elements:
// three comparisons and four reads per window, one write per output.
func poolOps(m int) opcount.Counts {
	u := uint64(m)
	return eltCounts(3*u, 4*u, 0, u)
}

// gapOps prices global average pooling over c channels of hw elements:
// hw accumulating adds and reads per channel, one scaling multiply and
// one write per channel.
func gapOps(c, hw int) opcount.Counts {
	u, v := uint64(c), uint64(hw)
	return eltCounts(u*v, u*v, u, u)
}

// dotLanes returns this convolution's dense-equivalent dot-lane count
// given totalOffs in-bounds window positions per channel.
func (c *QConv2D) dotLanes(totalOffs uint64) uint64 {
	if c.Depthwise {
		return uint64(c.OutC) * totalOffs
	}
	return uint64(c.OutC) * uint64(c.InC) * totalOffs
}

// recordOps tallies one conv layer execution for n examples sharing the
// patch geometry. nnz < 0 means those examples ran the dense path (exec
// == dense); otherwise nnz is their summed compacted entry count, which
// the sparse path reduces the dot-lane workload to (each pixel's
// compacted run is reused by every output channel; a depthwise segment
// belongs to exactly one).
func (c *QConv2D) recordOps(ops *opcount.Recorder, li int, totalOffs uint64, nin, npix, n, nnz int) {
	if ops == nil {
		return
	}
	tDense := uint64(n) * c.dotLanes(totalOffs)
	tExec := tDense
	if nnz >= 0 {
		if c.Depthwise {
			tExec = uint64(nnz)
		} else {
			tExec = uint64(c.OutC) * uint64(nnz)
		}
	}
	nio, nout := uint64(n)*uint64(nin), uint64(n)*uint64(c.OutC)*uint64(npix)
	dense := matCounts(tDense, nio, nout)
	exec := dense
	if tExec != tDense {
		exec = matCounts(tExec, nio, nout)
	}
	ops.Record(li, dense, exec)
}

// recordOps tallies n dense-layer executions (the fully-connected layer
// has no sparse variant: exec == dense).
func (d *QDense) recordOps(ops *opcount.Recorder, li, n int) {
	if ops == nil {
		return
	}
	t := uint64(n) * uint64(d.In) * uint64(d.Out)
	cts := matCounts(t, uint64(n)*uint64(d.In), uint64(n)*uint64(d.Out))
	ops.Record(li, cts, cts)
}
