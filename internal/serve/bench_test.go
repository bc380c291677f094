package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quant"
)

// closedLoop is the tests' load generator: clients goroutines share n
// calls of post, each client keeping one request in flight, and the
// returned map counts the answers by HTTP status (0 counts transport
// errors).
func closedLoop(n, clients int, post func() (*http.Response, error)) (map[int]int, time.Duration) {
	var mu sync.Mutex
	codes := make(map[int]int)
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(n) {
				code := 0
				if resp, err := post(); err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
				}
				mu.Lock()
				codes[code]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return codes, time.Since(start)
}

// poster posts one fixed body to url.
func poster(url, contentType string, body []byte) func() (*http.Response, error) {
	return func() (*http.Response, error) {
		return http.Post(url, contentType, bytes.NewReader(body))
	}
}

// jsonSingleBody is the naive one-input JSON classify body.
func jsonSingleBody(tb testing.TB, x []float32) []byte {
	tb.Helper()
	body, err := json.Marshal(classifyRequest{Input: x})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// rawBatchBody concatenates n inputs, cycling over xs, in the raw wire
// format.
func rawBatchBody(xs [][]float32, n int) []byte {
	var raw []byte
	for i := 0; i < n; i++ {
		for _, v := range xs[i%len(xs)] {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
	}
	return raw
}

// benchServer builds one leg of the smoke serving stack in throughput
// mode: the smoke network, served as a one-model registry, behind an
// engine pool built from factory. The exact-integer engine is the
// amortization-floor configuration (serving overheads dominate, so the
// micro-batching win is fully visible); the SCONNA functional engine
// shows the compute-bound end, where the stream simulation caps how
// much batching can recover.
func benchServer(tb testing.TB, factory quant.EngineFactory) *Registry {
	tb.Helper()
	reg, _ := servedModel(tb, factory, Options{
		InputShape: testShape,
		MaxBatch:   32,
		QueueDepth: 512,
	})
	return reg
}

func benchInputs(tb testing.TB, n int) [][]float32 {
	tb.Helper()
	xs := testInputs(n, 101)
	flat := make([][]float32, n)
	for i, x := range xs {
		flat[i] = x.Data
	}
	return flat
}

// batchedClients and batchedSize shape throughput mode: four concurrent
// clients posting 32-input raw bodies into the micro-batcher.
const (
	batchedClients = 4
	batchedSize    = 32
)

// speedup measures reg over loopback HTTP: serial single-input JSON POSTs
// from one closed-loop client (the integration a one-shot caller
// writes), then batched raw POSTs from concurrent clients, batched/32
// of them. It returns inputs classified per second for each leg; any
// answer but 200 fails the test.
func speedup(t *testing.T, reg *Registry, serial, batched int) (serialQPS, batchedQPS float64) {
	t.Helper()
	hs, base, err := ListenLocal(reg.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	inputs := benchInputs(t, 64)
	single := poster(base+"/v1/classify", "application/json", jsonSingleBody(t, inputs[0]))
	batch := poster(base+"/v1/classify", rawContentType, rawBatchBody(inputs, batchedSize))
	run := func(leg string, n, clients int, post func() (*http.Response, error)) time.Duration {
		codes, elapsed := closedLoop(n, clients, post)
		if codes[http.StatusOK] != n {
			t.Fatalf("%s leg: status counts %v, want %d x 200", leg, codes, n)
		}
		return elapsed
	}
	// Warm the path: first-touch allocations, connection setup and
	// position-cache builds.
	run("warm batched", 2, 2, batch)
	run("warm serial", 16, 1, single)

	serialQPS = float64(serial) / run("serial", serial, 1, single).Seconds()
	posts := batched / batchedSize
	batchedQPS = float64(posts*batchedSize) / run("batched", posts, batchedClients, batch).Seconds()
	return serialQPS, batchedQPS
}

// The acceptance floor of the serving plane: micro-batched concurrent
// serving must sustain at least 4x the QPS of single-request-serial
// serving (one closed-loop client, one input per POST) on the smoke
// network. The win is amortization — per-request HTTP and dispatch
// overhead divided across the batch, DKV gathers shared batch-wide,
// pooled engines reused — so it holds even on a single core. The floor
// is measured on the exact-integer serving configuration with the raw
// wire format, where serving overheads (rather than the functional
// stream simulation) are what the caller pays per request.
func TestThroughputSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is a full-tier test")
	}
	const floor = 4.0
	var serial, batched float64
	for attempt := 0; attempt < 2; attempt++ {
		serial, batched = speedup(t, benchServer(t, quant.SharedEngine(quant.ExactEngine{})), 512, 2048)
		if batched >= floor*serial {
			break
		}
	}
	t.Logf("serial %.0f QPS, batched %.0f QPS, speedup %.2fx", serial, batched, batched/serial)
	if batched < floor*serial {
		t.Fatalf("throughput mode %.2fx over single-request-serial, floor %.1fx", batched/serial, floor)
	}
}

// The compute-bound end of the same measurement: serving the SCONNA
// functional engine must still gain from micro-batching (the stream
// simulation dominates, so the ratio is smaller — recorded, not floored
// at 4x).
func TestThroughputSpeedupSconnaEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is a full-tier test")
	}
	serial, batched := speedup(t, benchServer(t, quant.SconnaEngineFactory(testCoreConfig())), 128, 512)
	t.Logf("sconna engine: serial %.0f QPS, batched %.0f QPS, speedup %.2fx", serial, batched, batched/serial)
	if batched < 1.1*serial {
		t.Fatalf("micro-batching gained nothing on the SCONNA engine: %.2fx", batched/serial)
	}
}

// BenchmarkServeSerialHTTP measures single-request-serial serving: one
// closed-loop client, one raw input per POST.
func BenchmarkServeSerialHTTP(b *testing.B) {
	benchServe(b, 1, 1)
}

// BenchmarkServeBatchedHTTP measures throughput-mode serving: four
// concurrent clients posting 32-input raw batches into the
// micro-batcher. One op is one input.
func BenchmarkServeBatchedHTTP(b *testing.B) {
	benchServe(b, batchedClients, batchedSize)
}

func benchServe(b *testing.B, clients, batch int) {
	reg := benchServer(b, quant.SharedEngine(quant.ExactEngine{}))
	hs, base, err := ListenLocal(reg.Handler())
	if err != nil {
		b.Fatal(err)
	}
	defer hs.Close()
	post := poster(base+"/v1/classify", rawContentType, rawBatchBody(benchInputs(b, 64), batch))
	posts := (b.N + batch - 1) / batch
	b.ResetTimer()
	codes, elapsed := closedLoop(posts, clients, post)
	b.StopTimer()
	if codes[http.StatusOK] != posts {
		b.Fatalf("status counts %v, want %d x 200", codes, posts)
	}
	b.ReportMetric(float64(posts*batch)/elapsed.Seconds(), "qps")
}
