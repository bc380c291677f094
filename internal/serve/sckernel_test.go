package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/sckernel"
)

// TestPackedEngineDeterministicReplay: the SC-backed serving engine must
// satisfy the same replay contract as the scalar plane — every response a
// pure function of (network, input, seq) at pool sizes 1, 2 and 4 — and,
// because the packed factory derives shard seeds identically, the served
// logits must be bit-identical to the scalar SCONNA factory's.
func TestPackedEngineDeterministicReplay(t *testing.T) {
	qn := testNet(t)
	cfg := testCoreConfig()
	packed := sckernel.EngineFactory(cfg)
	scalar := quant.SconnaEngineFactory(cfg)
	trace := testInputs(10, 61)

	// Naive reference: one fresh scalar engine per request seq.
	want := make([][]float32, len(trace))
	for i, x := range trace {
		eng, err := scalar(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = qn.ForwardNaive(x, eng).Data
	}

	for _, pool := range []int{1, 2, 4} {
		s := newTestServer(t, packed, Options{
			InputShape: testShape, Deterministic: true,
			PoolSize: pool, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 64,
		})
		results, err := s.SubmitBatch(context.Background(), trace)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		for i, res := range results {
			if res.Seq != uint64(i) {
				t.Fatalf("pool %d: trace index %d got seq %d", pool, i, res.Seq)
			}
			for j := range want[i] {
				if res.Logits[j] != want[i][j] {
					t.Fatalf("pool %d: trace %d logit %d: packed %v != scalar reference %v",
						pool, i, j, res.Logits[j], want[i][j])
				}
			}
		}
	}
}

// TestPackedEngineThroughputPool: in throughput mode the packed engines
// are pooled statefully like any SCONNA engine — batches are served from
// pool slots and every request classifies.
func TestPackedEngineThroughputPool(t *testing.T) {
	s := newTestServer(t, sckernel.EngineFactory(testCoreConfig()), Options{
		InputShape: testShape, PoolSize: 2, MaxBatch: 4,
	})
	results, err := s.SubmitBatch(context.Background(), testInputs(6, 67))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Engine < 0 || res.Engine >= 2 {
			t.Fatalf("result %d: engine %d outside pool", i, res.Engine)
		}
	}
	if st := s.Stats(); st.Served != 6 {
		t.Fatalf("Served = %d, want 6", st.Served)
	}
}

// TestRegistryServesPackedModel: an sckernel-backed model registers and
// routes like any other, and its responses match a scalar-backed twin of
// the same network registered beside it.
func TestRegistryServesPackedModel(t *testing.T) {
	qn := testNet(t)
	cfg := testCoreConfig()
	reg := NewRegistry()
	opts := Options{InputShape: testShape, Deterministic: true, PoolSize: 2, MaxBatch: 4, QueueDepth: 64}
	mp, err := reg.Register("packed", qn, sckernel.EngineFactory(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := reg.Register("scalar", qn, quant.SconnaEngineFactory(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.DrainAll(ctx)
	})
	if mp.Version() != ms.Version() {
		t.Fatalf("same network, different versions: %q vs %q", mp.Version(), ms.Version())
	}
	for i, x := range testInputs(5, 71) {
		rp, err := mp.Server().Submit(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ms.Server().Submit(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range rs.Logits {
			if rp.Logits[j] != rs.Logits[j] {
				t.Fatalf("input %d logit %d: packed model %v != scalar model %v",
					i, j, rp.Logits[j], rs.Logits[j])
			}
		}
	}
}
