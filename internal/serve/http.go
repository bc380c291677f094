package serve

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// classifyRequest is the JSON classify body (POST
// /v1/models/{name}/classify and its /v1/classify alias): exactly one
// of the input forms must be set. Input/Inputs carry flat pixel arrays
// in the server's InputShape layout (CHW); InputB64/InputsB64 carry the
// same tensors as base64 of little-endian float32s (InputsB64
// concatenates whole examples, so the batch size is implied by the
// length) — the compact form high-throughput callers use to keep JSON
// float parsing off the hot path. Logits asks for raw logits in the
// response.
type classifyRequest struct {
	Input     []float32   `json:"input,omitempty"`
	Inputs    [][]float32 `json:"inputs,omitempty"`
	InputB64  string      `json:"input_b64,omitempty"`
	InputsB64 string      `json:"inputs_b64,omitempty"`
	Logits    bool        `json:"logits,omitempty"`
}

// batchResponse wraps batch results in input order.
type batchResponse struct {
	Results []Result `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleClassify answers one classify request for this model; the
// registry's routes call it behind their quota and breaker gates.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	// The decode window is only timed when telemetry is on; the Nop path
	// takes no timestamps.
	var start time.Time
	if s.tel != nil {
		start = time.Now()
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	raw := r.Header.Get("Content-Type") == rawContentType
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes(raw))
	if raw {
		s.handleClassifyRaw(w, r, start)
		return
	}
	var req classifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyError(w, "invalid JSON: ", err)
		return
	}
	xs, single, err := s.decodeInputs(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := s.httpCtx(r, start)
	if single {
		res, err := s.Submit(ctx, xs[0])
		if err != nil {
			s.writeSubmitError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, trimLogits(res, req.Logits))
		return
	}
	if len(xs) > cap(s.queue) {
		writeError(w, http.StatusBadRequest, "batch larger than the server queue")
		return
	}
	results, err := s.SubmitBatch(ctx, xs)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	for i := range results {
		results[i] = trimLogits(results[i], req.Logits)
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// httpCtx attaches the HTTP decode timing and the client's stamped
// trace ID to the admission context. Only when telemetry is on — the
// Nop path allocates no context values and takes no timestamps.
func (s *Server) httpCtx(r *http.Request, start time.Time) context.Context {
	if s.tel == nil {
		return r.Context()
	}
	return telemetry.WithHTTPInfo(r.Context(), telemetry.HTTPInfo{
		Decode:   time.Since(start),
		ClientID: r.Header.Get(telemetry.TraceIDHeader),
	})
}

// rawContentType selects the binary wire format: the POST body is the
// concatenated little-endian float32 tensors themselves (batch size
// implied by the length), nothing is JSON-scanned on the input path, and
// the response is always a batchResponse. ?logits=1 asks for logits.
// This is the format the benchmark's throughput clients use.
const rawContentType = "application/octet-stream"

// Classify bodies are bounded before they are read: a request may carry
// at most cap(queue) inputs of inputLen floats each, so no body needs
// more bytes than that many floats in its wire format. Raw bodies spend
// exactly 4 bytes per float. JSON spends at most jsonBytesPerFloat — the
// longest float32 encoding/json writes (22 bytes, e.g.
// "-999999900000000000000") plus its separator, with headroom for
// whitespace; the base64 forms need about 5.4 — plus jsonEnvelopeBytes
// for keys and brackets. A body past its limit is a 413, answered
// without reading the rest.
const (
	jsonBytesPerFloat = 32
	jsonEnvelopeBytes = 1 << 10
)

// maxBodyBytes is the classify body limit for the raw or JSON format.
func (s *Server) maxBodyBytes(raw bool) int64 {
	floats := int64(cap(s.queue)) * int64(s.inputLen())
	if raw {
		return 4 * floats
	}
	return jsonBytesPerFloat*floats + jsonEnvelopeBytes
}

// writeBodyError answers a failed body read: 413 past the size limit,
// 400 otherwise.
func writeBodyError(w http.ResponseWriter, prefix string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body over the %d-byte limit for one queue of inputs", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, prefix+err.Error())
}

func (s *Server) handleClassifyRaw(w http.ResponseWriter, r *http.Request, start time.Time) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, "reading body: ", err)
		return
	}
	n := s.inputLen()
	if len(raw) == 0 || len(raw)%(4*n) != 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("raw body is %d bytes, want a positive multiple of %d (one %v float32 tensor)",
				len(raw), 4*n, s.opts.InputShape))
		return
	}
	data := make([]float32, len(raw)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	xs := make([]*tensor.T, len(data)/n)
	for i := range xs {
		if xs[i], err = s.inputTensor(data[i*n : (i+1)*n : (i+1)*n]); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// The body limit caps len(xs) at cap(queue), so the group can fit.
	results, err := s.SubmitBatch(s.httpCtx(r, start), xs)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	keepLogits := r.URL.Query().Get("logits") != ""
	for i := range results {
		results[i] = trimLogits(results[i], keepLogits)
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// decodeInputs normalizes the four request forms into input tensors,
// enforcing that exactly one form is present.
func (s *Server) decodeInputs(req classifyRequest) (xs []*tensor.T, single bool, err error) {
	forms := 0
	for _, set := range []bool{req.Input != nil, req.Inputs != nil, req.InputB64 != "", req.InputsB64 != ""} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		return nil, false, errors.New(`set exactly one of "input", "inputs", "input_b64", "inputs_b64"`)
	}
	switch {
	case req.Input != nil:
		x, err := s.inputTensor(req.Input)
		if err != nil {
			return nil, false, err
		}
		return []*tensor.T{x}, true, nil
	case req.Inputs != nil:
		if len(req.Inputs) == 0 {
			return nil, false, errors.New(`serve: "inputs" carries no examples`)
		}
		xs = make([]*tensor.T, len(req.Inputs))
		for i, in := range req.Inputs {
			if xs[i], err = s.inputTensor(in); err != nil {
				return nil, false, err
			}
		}
		return xs, false, nil
	case req.InputB64 != "":
		data, err := decodeB64Floats(req.InputB64)
		if err != nil {
			return nil, false, err
		}
		x, err := s.inputTensor(data)
		if err != nil {
			return nil, false, err
		}
		return []*tensor.T{x}, true, nil
	default:
		data, err := decodeB64Floats(req.InputsB64)
		if err != nil {
			return nil, false, err
		}
		n := s.inputLen()
		if len(data) == 0 || len(data)%n != 0 {
			return nil, false, fmt.Errorf("serve: inputs_b64 carries %d floats, want a positive multiple of %d", len(data), n)
		}
		xs = make([]*tensor.T, len(data)/n)
		for i := range xs {
			if xs[i], err = s.inputTensor(data[i*n : (i+1)*n : (i+1)*n]); err != nil {
				return nil, false, err
			}
		}
		return xs, false, nil
	}
}

// decodeB64Floats decodes base64 little-endian float32s.
func decodeB64Floats(s string) ([]float32, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("serve: invalid base64 input: %w", err)
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("serve: base64 input is %d bytes, want a multiple of 4", len(raw))
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// inputTensor validates a flat pixel array against the configured shape.
func (s *Server) inputTensor(data []float32) (*tensor.T, error) {
	x := &tensor.T{Shape: s.opts.InputShape, Data: data}
	if err := s.checkInput(x); err != nil {
		return nil, err
	}
	return x, nil
}

// trimLogits drops the logits payload unless the caller asked for it;
// classification responses stay small on the hot path.
func trimLogits(res Result, keep bool) Result {
	if !keep {
		res.Logits = nil
	}
	return res
}

// writeSubmitError maps batcher errors onto status codes: backpressure
// is the explicit 429 contract, drain is 503, a server-imposed
// deadline (Options.DefaultTimeout) is 504, a caller-gone context is
// 499-style (the nginx convention; net/http has no name for it).
//
// The 429 backoff contract: every ErrOverloaded response carries a
// Retry-After of whole seconds derived from the observed drain rate —
// current queue backlog divided by recently served requests per
// second, clamped to [1, 30]. A client that waits the advertised
// interval (the resilience.RetryClient honors it verbatim) arrives
// when the backlog it was rejected behind has, at the observed rate,
// drained; hammering sooner only re-fills the window it was shed from.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrDeadline):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, 499, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding these small value types cannot fail; a broken connection
	// surfaces in the client, not here.
	_ = json.NewEncoder(w).Encode(v)
}
