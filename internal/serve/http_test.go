package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/sckernel"
)

// httpServer serves a one-model registry (servedModel) over loopback.
func httpServer(t *testing.T, factory quant.EngineFactory, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	reg, s := servedModel(t, factory, opts)
	return s, registryHTTP(t, reg)
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func marshalInput(t *testing.T, data []float32) string {
	t.Helper()
	b, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHTTPClassifySingleAndBatch(t *testing.T) {
	_, hs := httpServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(func(o *Options) {
		o.ClassNames = []string{"w", "x", "y", "z"}
	}))
	in := marshalInput(t, testInputs(1, 61)[0].Data)

	code, body := postJSON(t, hs.URL, `{"input":`+in+`}`)
	if code != http.StatusOK {
		t.Fatalf("single: %d %s", code, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.ClassName == "" || res.Logits != nil {
		t.Fatalf("single response %s: want class name, no logits by default", body)
	}

	code, body = postJSON(t, hs.URL, `{"inputs":[`+in+`,`+in+`],"logits":true}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var batch batchResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch results: %s", body)
	}
	for i, r := range batch.Results {
		if r.Logits == nil {
			t.Fatalf("result %d missing requested logits", i)
		}
		if i > 0 && (r.Class != batch.Results[0].Class || r.Seq != batch.Results[0].Seq+uint64(i)) {
			t.Fatalf("identical inputs diverged or seqs non-consecutive: %s", body)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s, hs := httpServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	in := marshalInput(t, testInputs(1, 67)[0].Data)
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"not json", `{{{`},
		{"both forms", `{"input":` + in + `,"inputs":[` + in + `]}`},
		{"wrong length", `{"input":[1,2,3]}`},
		{"wrong length in batch", `{"inputs":[[1,2,3]]}`},
	}
	for _, c := range cases {
		if code, body := postJSON(t, hs.URL, c.body); code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", c.name, code, body)
		}
	}
	if code, _ := postJSON(t, hs.URL, `{"inputs":[`+strings.Repeat(in+",", cap(s.queue))+in+`]}`); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d", code)
	}
	// A raw body one input past cap(queue) is over the body limit: 413,
	// answered before the body is read to the end.
	var full [][]float32
	for _, x := range testInputs(cap(s.queue)+1, 163) {
		full = append(full, x.Data)
	}
	over := bytes.NewReader(rawBatchBody(full, len(full)))
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", over)
	req.Header.Set("Content-Type", rawContentType)
	rec := httptest.NewRecorder()
	hs.Config.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || over.Len() == 0 {
		t.Fatalf("raw body of cap(queue)+1 inputs: %d %s (%d bytes unread), want 413 before the end",
			rec.Code, rec.Body, over.Len())
	}
	resp, err := http.Get(hs.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %d", resp.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	g := newGatedEngine()
	s, hs := httpServer(t, quant.SharedEngine(g), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 1, QueueDepth: 1,
	})
	// Wedge the engine, then fill the pipeline via the API.
	first, err := s.enqueue(context.Background(), testInputs(1, 71))
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	in := marshalInput(t, testInputs(1, 73)[0].Data)
	saw429 := false
	for i := 0; i < 20 && !saw429; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/classify", strings.NewReader(`{"input":`+in+`}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Fatal("429 without Retry-After")
				}
				saw429 = true
			}
			resp.Body.Close()
		}
		cancel()
	}
	if !saw429 {
		t.Fatal("overload never surfaced as 429")
	}
	close(g.release)
	<-first[0].done
}

func TestHTTPHealthAndStats(t *testing.T) {
	reg, s := servedModel(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	hs := registryHTTP(t, reg)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	if _, err := s.SubmitBatch(context.Background(), testInputs(3, 79)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(hs.URL + "/v1/models/" + DefaultModelName + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 3 || st.PoolSize != 2 || len(st.BatchSizes) != 4 {
		t.Fatalf("stats: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.DrainAll(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatal("DrainAll left the model's server admitting")
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	if code, _ := postJSON(t, hs.URL, `{"input":`+marshalInput(t, testInputs(1, 83)[0].Data)+`}`); code != http.StatusServiceUnavailable {
		t.Fatalf("draining classify: %d", code)
	}
}

// The compact wire formats (base64 field and raw octet-stream body)
// must classify identically to the JSON float-array form.
func TestHTTPCompactWireFormats(t *testing.T) {
	_, hs := httpServer(t, quant.SharedEngine(quant.ExactEngine{}), exactOpts(nil))
	xs := testInputs(2, 97)
	rawBytes := func(data []float32) []byte {
		raw := make([]byte, 4*len(data))
		for j, v := range data {
			binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(v))
		}
		return raw
	}

	code, body := postJSON(t, hs.URL, `{"input":`+marshalInput(t, xs[0].Data)+`,"logits":true}`)
	if code != http.StatusOK {
		t.Fatalf("json leg: %d %s", code, body)
	}
	var want Result
	if err := json.Unmarshal([]byte(body), &want); err != nil {
		t.Fatal(err)
	}

	b64 := base64.StdEncoding.EncodeToString(rawBytes(xs[0].Data))
	code, body = postJSON(t, hs.URL, `{"input_b64":"`+b64+`","logits":true}`)
	if code != http.StatusOK {
		t.Fatalf("b64 single: %d %s", code, body)
	}
	var got Result
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Class != want.Class || fmt.Sprint(got.Logits) != fmt.Sprint(want.Logits) {
		t.Fatalf("b64 single diverged: %s", body)
	}

	concat := append(rawBytes(xs[0].Data), rawBytes(xs[1].Data)...)
	code, body = postJSON(t, hs.URL, `{"inputs_b64":"`+base64.StdEncoding.EncodeToString(concat)+`","logits":true}`)
	if code != http.StatusOK {
		t.Fatalf("b64 batch: %d %s", code, body)
	}
	var batch batchResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Class != want.Class {
		t.Fatalf("b64 batch diverged: %s", body)
	}

	resp, err := http.Post(hs.URL+"/v1/classify?logits=1", rawContentType, bytes.NewReader(concat))
	if err != nil {
		t.Fatal(err)
	}
	rawBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw batch: %d %s", resp.StatusCode, rawBody)
	}
	batch = batchResponse{}
	if err := json.Unmarshal(rawBody, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Class != want.Class ||
		fmt.Sprint(batch.Results[0].Logits) != fmt.Sprint(want.Logits) {
		t.Fatalf("raw batch diverged: %s", rawBody)
	}

	// Malformed compact bodies are 400s, not 500s.
	if code, _ := postJSON(t, hs.URL, `{"input_b64":"!!!"}`); code != http.StatusBadRequest {
		t.Fatalf("bad base64: %d", code)
	}
	if code, _ := postJSON(t, hs.URL, `{"inputs_b64":"`+base64.StdEncoding.EncodeToString(concat[:12])+`"}`); code != http.StatusBadRequest {
		t.Fatalf("misaligned b64 batch: %d", code)
	}
	resp, err = http.Post(hs.URL+"/v1/classify", rawContentType, bytes.NewReader(concat[:10]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misaligned raw body: %d", resp.StatusCode)
	}
	// Non-finite inputs are 400s on both compact formats: NaN and ±Inf
	// never reach quantization.
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		x := append([]float32(nil), xs[0].Data...)
		x[3] = bad
		resp, err := http.Post(hs.URL+"/v1/classify", rawContentType, bytes.NewReader(rawBytes(x)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("raw %v: %d, want 400", bad, resp.StatusCode)
		}
		if code, body := postJSON(t, hs.URL, `{"input_b64":"`+base64.StdEncoding.EncodeToString(rawBytes(x))+`"}`); code != http.StatusBadRequest {
			t.Fatalf("input_b64 %v: %d %s, want 400", bad, code, body)
		}
	}
}

// The HTTP-level replay pin: a deterministic server fed the same trace
// twice — across restarts and different pool sizes — must emit
// byte-identical response bodies, on the scalar SC engine (one Dot per
// operand row) and on the packed engine (one DotTile per layer tile),
// and the two engines' bodies must match each other.
func TestHTTPDeterministicReplayBytes(t *testing.T) {
	trace := testInputs(8, 89)
	run := func(factory quant.EngineFactory, pool, maxBatch int) []string {
		_, hs := httpServer(t, factory, Options{
			InputShape: testShape, PoolSize: pool, MaxBatch: maxBatch, QueueDepth: 64,
		})
		var bodies []string
		for _, x := range trace {
			code, body := postJSON(t, hs.URL, `{"input":`+marshalInput(t, x.Data)+`,"logits":true}`)
			if code != http.StatusOK {
				t.Fatalf("replay request: %d %s", code, body)
			}
			bodies = append(bodies, body)
		}
		return bodies
	}
	first := run(quant.SconnaEngineFactory(testCoreConfig()), 1, 1)
	for _, cfg := range []struct {
		name           string
		factory        quant.EngineFactory
		pool, maxBatch int
	}{
		{"scalar", quant.SconnaEngineFactory(testCoreConfig()), 1, 1},
		{"scalar", quant.SconnaEngineFactory(testCoreConfig()), 3, 8},
		{"packed", sckernel.EngineFactory(testCoreConfig()), 1, 1},
		{"packed", sckernel.EngineFactory(testCoreConfig()), 3, 8},
	} {
		again := run(cfg.factory, cfg.pool, cfg.maxBatch)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("%s pool=%d maxBatch=%d: response %d drifted:\n%s\nvs\n%s",
					cfg.name, cfg.pool, cfg.maxBatch, i, first[i], again[i])
			}
		}
	}
}

// FuzzClassifyBody feeds arbitrary bytes to the served handler, once as
// a JSON body and once as a raw octet-stream body. The handler never
// panics, answers 200, 400 or 413, and a 200 carries exactly one result
// per input the body encodes.
func FuzzClassifyBody(f *testing.F) {
	reg, _ := servedModel(f, quant.SharedEngine(quant.ExactEngine{}), Options{
		InputShape: testShape, PoolSize: 1, MaxBatch: 4, QueueDepth: 4,
	})
	h := reg.Handler()
	n := testShape[0] * testShape[1] * testShape[2]
	xs := testInputs(2, 59)
	js := func(data []float32) string {
		b, _ := json.Marshal(data)
		return string(b)
	}
	var full [][]float32
	for _, x := range xs {
		full = append(full, x.Data)
	}
	raw := rawBatchBody(full, len(full))
	b64 := base64.StdEncoding.EncodeToString
	nonFinite := append([]float32(nil), xs[0].Data...)
	nonFinite[3] = float32(math.Inf(1))
	for _, seed := range [][]byte{
		[]byte(`{"input":` + js(xs[0].Data) + `}`),
		[]byte(`{"inputs":[` + js(xs[0].Data) + `,` + js(xs[1].Data) + `],"logits":true}`),
		[]byte(`{"input_b64":"` + b64(raw[:4*n]) + `"}`),
		[]byte(`{"inputs_b64":"` + b64(raw) + `"}`),
		raw,
		rawBatchBody([][]float32{nonFinite}, 1),
		rawBatchBody(full, 5), // one input past QueueDepth: over the raw body limit
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ct := range []string{"application/json", rawContentType} {
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
				continue
			default:
				t.Fatalf("%s body: status %d %s", ct, rec.Code, rec.Body)
			}
			// Count the inputs the body encodes, decoding it the way the
			// handler does (one JSON value; trailing bytes are ignored).
			inputs, single := len(body)/(4*n), false
			if ct != rawContentType {
				var cr classifyRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&cr); err != nil {
					t.Fatalf("200 for a body that does not decode: %v", err)
				}
				switch {
				case cr.Input != nil || cr.InputB64 != "":
					inputs, single = 1, true
				case cr.Inputs != nil:
					inputs = len(cr.Inputs)
				default:
					floats, err := base64.StdEncoding.DecodeString(cr.InputsB64)
					if err != nil {
						t.Fatalf("200 for invalid inputs_b64: %v", err)
					}
					inputs = len(floats) / (4 * n)
				}
			}
			var resp struct {
				Results []Result `json:"results"`
				Class   *int     `json:"class"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s 200 body does not decode: %v\n%s", ct, err, rec.Body)
			}
			if single {
				if resp.Class == nil || resp.Results != nil {
					t.Fatalf("single-input 200 is not one result: %s", rec.Body)
				}
			} else if len(resp.Results) != inputs || inputs == 0 {
				t.Fatalf("%s 200 carries %d results for %d inputs", ct, len(resp.Results), inputs)
			}
		}
	})
}
