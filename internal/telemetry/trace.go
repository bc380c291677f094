// Package telemetry is the observability plane of the serving stack:
// per-request span traces (deterministic trace IDs derived from the
// arrival seq via splitmix64, a bounded ring of recent traces
// exportable as Chrome trace-event JSON), per-stage log2 latency
// histograms, a hand-rolled Prometheus text exposition writer (no
// dependencies), and pprof mounting.
//
// The plane is strictly passive: it never touches request results, so
// deterministic replay stays byte-identical with telemetry on (pinned
// by the serving plane's Nop-telemetry replay test). Every recording
// entry point is nil-safe — a nil *Plane or nil *Span is the Nop path,
// costing one branch per call site and allocating nothing — which is
// what keeps the telemetry-off hot path provably unperturbed.
package telemetry

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/digest"
)

// Stage enumerates the serving pipeline stages a request moves through,
// in order. Each span records the monotonic completion offset of every
// stage it reaches; a stage's duration is the gap to the previous
// reached stage.
type Stage uint8

const (
	// StageDecode is HTTP body read and input decoding (zero-width for
	// direct Go submissions).
	StageDecode Stage = iota
	// StageAdmit is admission: input validation, seq assignment and
	// queue insertion.
	StageAdmit
	// StageQueue is time spent waiting in the bounded queue until batch
	// assembly pulled the request.
	StageQueue
	// StageAssemble is the batch-fill window plus the handoff to a
	// worker goroutine.
	StageAssemble
	// StageCheckout is the engine-pool checkout wait.
	StageCheckout
	// StageForward is the batched forward pass.
	StageForward
	// StageRespond is result fan-out to the caller's future.
	StageRespond

	numStages
)

var stageNames = [numStages]string{
	"decode", "admit", "queue", "assemble", "checkout", "forward", "respond",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// StageNames returns the pipeline stages in order; the per-stage
// histogram export iterates it so metric ordering is stable.
func StageNames() []string { return stageNames[:] }

// TraceID derives the deterministic trace ID for an arrival seq:
// splitmix64 of the seq, rendered as 16 hex digits. The load
// generator derives its client-side IDs the same way from the global
// request index, so client and server traces join on format.
func TraceID(seq uint64) string {
	return fmt.Sprintf("%016x", digest.Mix64(seq))
}

// TraceIDHeader is the HTTP header load-generation clients stamp their
// request-index-derived trace ID into; the server records it on the
// span so client- and server-side traces can be joined offline.
const TraceIDHeader = "X-Trace-Id"

// Options configures a Plane.
type Options struct {
	// Name labels the plane's metrics and trace events (the registry
	// sets it to the model name).
	Name string
	// TraceRing bounds the in-memory ring of recent completed traces
	// (<= 0 selects 256).
	TraceRing int
}

// Plane is one serving stack's telemetry: per-stage latency histograms
// and a bounded ring of recent request traces. A nil *Plane is the Nop
// path — every method is nil-safe and free.
type Plane struct {
	name  string
	epoch time.Time

	stage [numStages]Histogram

	mu    sync.Mutex
	ring  []Span
	next  int
	total uint64
}

// New builds a Plane.
func New(opts Options) *Plane {
	n := opts.TraceRing
	if n <= 0 {
		n = 256
	}
	return &Plane{name: opts.Name, epoch: time.Now(), ring: make([]Span, 0, n)}
}

// Name returns the plane's label ("" when unset).
func (p *Plane) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Span is one request's trace: the seq-derived trace ID and the
// monotonic completion offset of every pipeline stage it reached.
// Marks are written by the single goroutine owning the request at that
// stage; the channel handoffs between stages order them.
type Span struct {
	plane *Plane
	// Seq is the request's arrival index; the trace ID derives from it.
	Seq uint64
	// Start is the span's wall-clock start (decode start for HTTP
	// requests, admission for direct submissions).
	Start time.Time
	// ClientID is the client's TraceIDHeader value, when stamped.
	ClientID string
	// Status is the request outcome: "ok", "cancelled", "expired" or
	// "failed".
	Status string
	// marks[i] is stage i's completion offset from Start; -1 unreached.
	marks [numStages]time.Duration
}

// StartSpan opens a span for an admitted request. start is the
// admission time; decode is the already-elapsed HTTP decode duration
// (0 for direct submissions) and clientID the caller's stamped trace
// ID, both usually recovered via HTTPInfoFrom. Returns nil (free) on a
// nil plane.
func (p *Plane) StartSpan(seq uint64, start time.Time, decode time.Duration, clientID string) *Span {
	if p == nil {
		return nil
	}
	sp := &Span{plane: p, Seq: seq, Start: start.Add(-decode), ClientID: clientID}
	for i := range sp.marks {
		sp.marks[i] = -1
	}
	if decode > 0 {
		sp.marks[StageDecode] = decode
	}
	sp.marks[StageAdmit] = time.Since(sp.Start)
	return sp
}

// Mark records stage completion at the current monotonic time. Nil-safe.
func (sp *Span) Mark(stage Stage) {
	if sp == nil {
		return
	}
	sp.marks[stage] = time.Since(sp.Start)
}

// Finish closes the span with an outcome, folds its stage durations
// into the plane's histograms and publishes it to the trace ring.
// Nil-safe; a span must be finished at most once.
func (sp *Span) Finish(status string) {
	if sp == nil {
		return
	}
	sp.Status = status
	prev := time.Duration(0)
	for i := Stage(0); i < numStages; i++ {
		if sp.marks[i] < 0 {
			continue
		}
		sp.plane.stage[i].Observe(sp.marks[i] - prev)
		prev = sp.marks[i]
	}
	p := sp.plane
	p.mu.Lock()
	if len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, *sp)
	} else {
		p.ring[p.next] = *sp
		p.next = (p.next + 1) % cap(p.ring)
	}
	p.total++
	p.mu.Unlock()
}

// StageSnapshot returns the per-stage latency histograms, indexed like
// StageNames.
func (p *Plane) StageSnapshot() []HistSnapshot {
	if p == nil {
		return nil
	}
	out := make([]HistSnapshot, numStages)
	for i := range out {
		out[i] = p.stage[i].Snapshot()
	}
	return out
}

// TraceCount returns how many traces the plane has recorded in total
// (the ring keeps only the most recent TraceRing of them).
func (p *Plane) TraceCount() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// StageRecord is one stage of an exported trace.
type StageRecord struct {
	Stage string        `json:"stage"`
	Dur   time.Duration `json:"dur_ns"`
}

// SpanRecord is one exported trace: the JSONL/Chrome-facing form of a
// completed Span.
type SpanRecord struct {
	TraceID  string        `json:"trace_id"`
	Seq      uint64        `json:"seq"`
	Model    string        `json:"model,omitempty"`
	ClientID string        `json:"client_trace_id,omitempty"`
	Status   string        `json:"status"`
	StartUS  float64       `json:"start_us"` // offset from the plane's epoch
	Stages   []StageRecord `json:"stages"`
}

// Traces exports the ring's completed traces sorted by seq — a
// deterministic order, unlike completion order, so two replays of the
// same trace export identically-ordered documents.
func (p *Plane) Traces() []SpanRecord {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	spans := append([]Span(nil), p.ring...)
	p.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	out := make([]SpanRecord, len(spans))
	for i, sp := range spans {
		rec := SpanRecord{
			TraceID:  TraceID(sp.Seq),
			Seq:      sp.Seq,
			Model:    p.name,
			ClientID: sp.ClientID,
			Status:   sp.Status,
			StartUS:  float64(sp.Start.Sub(p.epoch).Nanoseconds()) / 1e3,
		}
		prev := time.Duration(0)
		for s := Stage(0); s < numStages; s++ {
			if sp.marks[s] < 0 {
				continue
			}
			rec.Stages = append(rec.Stages, StageRecord{Stage: s.String(), Dur: sp.marks[s] - prev})
			prev = sp.marks[s]
		}
		out[i] = rec
	}
	return out
}

// httpInfoKey carries HTTPInfo through a request context.
type httpInfoKey struct{}

// HTTPInfo is what the HTTP layer measured before admission: the body
// decode duration and the client's stamped trace ID.
type HTTPInfo struct {
	Decode   time.Duration
	ClientID string
}

// WithHTTPInfo attaches decode timing and the client trace ID to a
// request context; the admission path recovers it with HTTPInfoFrom.
// Only called when telemetry is enabled, so the Nop path allocates no
// context values.
func WithHTTPInfo(ctx context.Context, info HTTPInfo) context.Context {
	return context.WithValue(ctx, httpInfoKey{}, info)
}

// HTTPInfoFrom recovers WithHTTPInfo's payload (zero value when absent).
func HTTPInfoFrom(ctx context.Context) HTTPInfo {
	info, _ := ctx.Value(httpInfoKey{}).(HTTPInfo)
	return info
}
