package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matmul"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// batchInputs draws n positive-valued inputs of the given shape.
func batchInputs(n int, seed int64, shape ...int) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(shape...)
		for j := range x.Data {
			x.Data[j] = float32(math.Abs(rng.NormFloat64()))
		}
		xs[i] = x
	}
	return xs
}

// quantNets builds one standard and one depthwise quantized network so
// every batch test covers both conv paths (shared-patch and depthwise
// gathers) plus padding-truncated windows.
func quantNets(t *testing.T) []*Network {
	t.Helper()
	var qns []*Network
	calib := []nn.Example{{X: batchInputs(1, 3, 1, 16, 16)[0], Label: 0}}
	for _, build := range []*nn.Network{
		nn.BuildSmallCNN(4, 8, 1),
		nn.BuildDepthwiseCNN(4, 8, 2),
	} {
		qn, err := Quantize(build, 8, calib)
		if err != nil {
			t.Fatal(err)
		}
		qns = append(qns, qn)
	}
	return qns
}

// A shared stateless engine: the batched forward must reproduce the
// naive reference per example bit-for-bit (same operand vectors, exact
// integer arithmetic is order-free).
func TestForwardBatchMatchesNaiveExact(t *testing.T) {
	for _, qn := range quantNets(t) {
		xs := batchInputs(5, 7, 1, 16, 16)
		s := NewBatchScratch()
		got := qn.ForwardBatch(xs, []DotEngine{ExactEngine{}}, s)
		for i, x := range xs {
			want := qn.ForwardNaive(x, ExactEngine{})
			assertBitIdentical(t, got[i], want)
		}
		// Scratch reuse across calls (and across batch sizes) must not
		// leak state between batches.
		got2 := qn.ForwardBatch(xs[:3], []DotEngine{ExactEngine{}}, s)
		for i := range got2 {
			assertBitIdentical(t, got2[i], got[i])
		}
	}
}

// One noisy scalar engine shared by the batch: every example's operand
// vectors are its naive ones and every dot is a pure function of them,
// so batched logits are bit-identical to running each example alone
// through ForwardNaive on an identically configured engine — the
// contract serving relies on.
func TestForwardBatchNoisyMatchesNaive(t *testing.T) {
	ccfg := core.DefaultConfig()
	ccfg.N = 32
	ccfg.M = 1
	ccfg.Bits = 8
	for _, qn := range quantNets(t) {
		xs := batchInputs(4, 9, 1, 16, 16)
		factory := SconnaEngineFactory(ccfg)
		eng, err := factory(0)
		if err != nil {
			t.Fatal(err)
		}
		got := qn.ForwardBatch(xs, []DotEngine{eng}, NewBatchScratch())
		for i, x := range xs {
			fresh, err := factory(i)
			if err != nil {
				t.Fatal(err)
			}
			want := qn.ForwardNaive(x, fresh)
			assertBitIdentical(t, got[i], want)
		}
	}
}

// The call-order contract holds for every batch size, including the
// single-example batch the micro-batcher degenerates to under light
// load.
func TestForwardBatchSizeOne(t *testing.T) {
	qn := quantNets(t)[0]
	x := batchInputs(1, 13, 1, 16, 16)
	got := qn.ForwardBatch(x, []DotEngine{ExactEngine{}}, nil)
	assertBitIdentical(t, got[0], qn.ForwardNaive(x[0], ExactEngine{}))
}

func TestForwardBatchValidates(t *testing.T) {
	qn := quantNets(t)[0]
	xs := batchInputs(2, 17, 1, 16, 16)
	if got := qn.ForwardBatch(nil, []DotEngine{ExactEngine{}}, nil); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
	mustPanic(t, "engine count", func() {
		qn.ForwardBatch(xs, nil, nil)
	})
	mustPanic(t, "one engine per example", func() {
		qn.ForwardBatch(xs, []DotEngine{ExactEngine{}, ExactEngine{}}, nil)
	})
	mustPanic(t, "shape mismatch", func() {
		bad := []*tensor.T{xs[0], tensor.New(1, 8, 8)}
		qn.ForwardBatch(bad, []DotEngine{ExactEngine{}}, nil)
	})
}

// rowRecordingEngine is a recording RowDotter: DotRows logs each of its
// rows as the Dot call the RowDotter contract says it stands for, so
// its log is directly comparable with a Dot-only recorder's.
type rowRecordingEngine struct {
	recordingEngine
	skips    bool
	rowCalls int // DotRows calls
	rows     int // calls that arrived as DotRows rows
}

func (r *rowRecordingEngine) SkipsZeros() bool { return r.skips }

func (r *rowRecordingEngine) DotRows(rows, dkv []int, _ []uint64, out []int) {
	r.rowCalls++
	r.rows += len(out)
	n := len(dkv)
	for i := range out {
		out[i] = r.Dot(rows[i*n:(i+1)*n], dkv)
	}
}

// sharedCallOrder is the call sequence a single engine shared by a
// batch must see, built from each example's ForwardNaive sequence on a
// dense-only engine: per conv layer and output channel,
// pixel-major across the examples — except a full-window non-depthwise
// conv, which runs each example's pixels in turn — and per dense output,
// example by example.
func sharedCallOrder(q *Network, h, w int, naive [][][2][]int) [][2][]int {
	var out [][2][]int
	off := 0 // start of the current layer's calls in every naive sequence
	for _, l := range q.layers {
		switch {
		case l.conv != nil:
			c := l.conv
			pos := matmul.Positions(h, w, c.K, c.Stride, c.Pad)
			npix := pos.NumPix()
			for oc := 0; oc < c.OutC; oc++ {
				base := off + oc*npix
				if pos.Full() && !c.Depthwise {
					for e := range naive {
						out = append(out, naive[e][base:base+npix]...)
					}
					continue
				}
				for pix := 0; pix < npix; pix++ {
					for e := range naive {
						out = append(out, naive[e][base+pix])
					}
				}
			}
			off += c.OutC * npix
			h, w = pos.OutH, pos.OutW
		case l.dense != nil:
			for o := 0; o < l.dense.Out; o++ {
				for e := range naive {
					out = append(out, naive[e][off+o])
				}
			}
			off += l.dense.Out
		case l.pool:
			h, w = h/2, w/2
		}
	}
	return out
}

func assertSameCalls(t *testing.T, what string, got, want [][2][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d calls, want %d", what, len(got), len(want))
	}
	for i := range want {
		for side := range want[i] {
			a, b := got[i][side], want[i][side]
			if len(a) != len(b) {
				t.Fatalf("%s: call %d operand %d has %d lanes, want %d", what, i, side, len(a), len(b))
			}
			for j := range b {
				if a[j] != b[j] {
					t.Fatalf("%s: call %d operand %d lane %d = %d, want %d", what, i, side, j, a[j], b[j])
				}
			}
		}
	}
}

// TestForwardBatchSharedCallOrder pins the call sequence one engine
// shared by a batch sees against an order built independently from the
// examples' ForwardNaive sequences, for a Dot-only engine and for a RowDotter whose rows
// are logged as calls. The cases cover padding-truncated, full-window
// (pad-0 and 1x1), depthwise and dense layers.
func TestForwardBatchSharedCallOrder(t *testing.T) {
	for _, tc := range qnetCases(t) {
		xs := batchInputs(3, 61, tc.x.Shape...)
		naive := make([][][2][]int, len(xs))
		for e, x := range xs {
			rec := &recordingEngine{}
			tc.qn.ForwardNaive(x, rec)
			naive[e] = rec.calls
		}
		want := sharedCallOrder(tc.qn, tc.x.Shape[1], tc.x.Shape[2], naive)

		perCall := &recordingEngine{}
		tc.qn.ForwardBatch(xs, []DotEngine{perCall}, nil)
		assertSameCalls(t, tc.name+" Dot", perCall.calls, want)

		rowed := &rowRecordingEngine{}
		tc.qn.ForwardBatch(xs, []DotEngine{rowed}, nil)
		if rowed.rowCalls == 0 {
			t.Fatalf("%s: DotRows never called", tc.name)
		}
		assertSameCalls(t, tc.name+" DotRows", rowed.calls, want)
	}
}

// TestForwardBatchMixedRowsMatchDot: on batches mixing sparse-path and
// dense-path examples, the rows a zero-skipping RowDotter receives,
// together with the sparse examples' Dot calls, are exactly the
// calls the same batch makes on a Dot-only engine.
func TestForwardBatchMixedRowsMatchDot(t *testing.T) {
	for _, tc := range qnetCases(t) {
		rng := rand.New(rand.NewSource(62))
		xs := make([]*tensor.T, 5)
		for i := range xs {
			sparsity := 0.0
			if i%3 == 0 { // sparse, dense, dense, sparse, dense
				sparsity = 0.95
			}
			xs[i] = sparseInput(rng, sparsity, tc.x.Shape...)
		}
		ref := &rowRecordingEngine{skips: true}
		want := tc.qn.ForwardBatch(xs, []DotEngine{struct{ ZeroSkipper }{ref}}, nil)
		rowed := &rowRecordingEngine{skips: true}
		got := tc.qn.ForwardBatch(xs, []DotEngine{rowed}, nil)
		for i := range want {
			assertBitIdentical(t, got[i], want[i])
		}
		if rowed.rowCalls == 0 || rowed.rows == len(rowed.calls) {
			t.Fatalf("%s: %d DotRows calls, %d of %d calls as rows: not a mixed batch",
				tc.name, rowed.rowCalls, rowed.rows, len(rowed.calls))
		}
		assertSameCalls(t, tc.name, rowed.calls, ref.calls)
	}
}

// assertBitIdentical compares bit patterns, not float values: -0 and +0
// differ, and a NaN matches the identical NaN.
func assertBitIdentical(t *testing.T, got, want *tensor.T) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("length %d vs %d", got.Len(), want.Len())
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("logit %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}
