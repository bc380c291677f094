package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// postRec is the client-side record of one POST. Times are offsets from
// the load run's origin.
type postRec struct {
	idx   int
	model int // index into workload.Models
	n     int // inputs carried
	// due is when the POST was meant to go out: its scheduled time in the
	// open loop, its send time in the closed loop. Latency is end - due,
	// so an open-loop stall is charged to every request it delays.
	due, send, end time.Duration
	// lag is how late the generator ran: send - due in the open loop,
	// send - the client's previous response in the closed loop (-1 for a
	// client's first POST).
	lag time.Duration
	ok  bool
}

// loadPlan is one load run against a booted stack.
type loadPlan struct {
	w    *workload
	fx   *fixture
	seed int64
	url  string
	// warm precedes the measured window of length measure; POSTs whose
	// due time falls in [warm, warm+measure) are measured.
	warm, measure time.Duration
	// stamp sets X-Trace-Id on every POST (the traced run).
	stamp  bool
	bodies [][]byte // POST idx carries bodies[idx % len(bodies)]
}

// loadResult is what the clients saw, warm-up included.
type loadResult struct {
	origin time.Time
	recs   []postRec
	// wrong counts inferences whose class differs from the exact-engine
	// reference on an exact-engine workload; agree/compared measure the
	// agreement of an approximate engine with that reference.
	wrong, agree, compared int
}

func newLoadPlan(w *workload, fx *fixture, seed int64, url string, warm, measure time.Duration) (*loadPlan, error) {
	n := w.perPost()
	p := &loadPlan{w: w, fx: fx, seed: seed, url: url, warm: warm, measure: measure}
	for k := 0; k < len(fx.inputs)/n; k++ {
		b, err := encodeBody(w, fx.inputs, k*n, n)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, b)
	}
	return p, nil
}

// run drives the stack with the workload's clients from origin until
// the measured window closes, then waits for every in-flight POST.
func (p *loadPlan) run(origin time.Time) *loadResult {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	res := &loadResult{origin: origin}
	var next atomic.Int64
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(part *loadResult) {
			defer wg.Done()
			p.client(part, hc, res.origin, &next)
		}(&parts[c])
	}
	wg.Wait()
	for _, part := range parts {
		res.recs = append(res.recs, part.recs...)
		res.wrong += part.wrong
		res.agree += part.agree
		res.compared += part.compared
	}
	return res
}

// client is one sender: closed loop (next POST as soon as the previous
// answered) or open loop (each POST index has a due time on a fixed
// schedule and the sender sleeps until it).
func (p *loadPlan) client(part *loadResult, hc *http.Client, origin time.Time, next *atomic.Int64) {
	end := p.warm + p.measure
	expect := 1000 * end.Seconds() // POSTs/s a client is unlikely to exceed
	if p.w.Open {
		expect = p.w.Rate * end.Seconds() / clients
	}
	part.recs = make([]postRec, 0, int(expect)+16)
	var buf bytes.Buffer
	prevEnd := time.Duration(-1)
	for {
		var rec postRec
		if p.w.Open {
			rec.idx = int(next.Add(1) - 1)
			rec.due = time.Duration(rec.idx) * p.w.interval()
			if rec.due >= end {
				return
			}
			if d := rec.due - time.Since(origin); d > 0 {
				time.Sleep(d)
			}
			rec.send = time.Since(origin)
			rec.lag = rec.send - rec.due
		} else {
			now := time.Since(origin)
			if now >= end {
				return
			}
			rec.idx = int(next.Add(1) - 1)
			rec.due, rec.send = now, now
			rec.lag = -1
			if prevEnd >= 0 {
				rec.lag = now - prevEnd
			}
		}
		rec.model = p.w.pick(p.seed, rec.idx)
		rec.n = p.w.perPost()
		k := rec.idx % len(p.bodies)
		status, err := p.post(hc, &buf, rec)
		rec.end = time.Since(origin)
		prevEnd = rec.end
		rec.ok = err == nil && status == http.StatusOK && p.check(part, rec, k*rec.n, buf.Bytes())
		part.recs = append(part.recs, rec)
	}
}

// post sends one POST and reads the whole response into buf.
func (p *loadPlan) post(hc *http.Client, buf *bytes.Buffer, rec postRec) (int, error) {
	body := p.bodies[rec.idx%len(p.bodies)]
	req, err := http.NewRequest(http.MethodPost, p.url+p.w.path(p.w.Models[rec.model]), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType(p.w))
	if p.stamp {
		req.Header.Set(telemetry.TraceIDHeader, telemetry.TraceID(uint64(rec.idx)))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// check decodes a 200 response and compares every class with the
// reference for the model the POST addressed. A malformed body or a
// wrong result count loses the POST (false); a wrong class on an exact
// engine is counted as wrong output.
func (p *loadPlan) check(part *loadResult, rec postRec, start int, body []byte) bool {
	classes, err := decodeClasses(body, p.w.Open)
	if err != nil || len(classes) != rec.n {
		return false
	}
	ref := p.fx.ref[p.w.Models[rec.model]]
	for j, c := range classes {
		hit := c == ref[(start+j)%len(ref)]
		if p.w.Engine == "exact" {
			if !hit {
				part.wrong++
			}
			continue
		}
		part.compared++
		if hit {
			part.agree++
		}
	}
	return true
}

type classResult struct {
	Class *int `json:"class"`
}

// decodeClasses reads the classes out of a classify response: a single
// Result for single-input JSON POSTs, {"results": [...]} otherwise.
func decodeClasses(body []byte, single bool) ([]int, error) {
	var rs []classResult
	if single {
		var r classResult
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		rs = []classResult{r}
	} else {
		var b struct {
			Results []classResult `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		rs = b.Results
	}
	out := make([]int, len(rs))
	for i, r := range rs {
		if r.Class == nil {
			return nil, fmt.Errorf("result %d carries no class", i)
		}
		out[i] = *r.Class
	}
	return out, nil
}

// window is the measured slice of a load run.
type window struct {
	attempted, failed int
	// throughput (successful inferences/s), p50 and p95 (ms) are each
	// the best value over the sub-windows.
	throughput, p50, p95 float64
	lat                  []float64 // sorted latency of every successful POST in the window, ms
	lags                 []float64 // sorted generator lag, ms
}

// subWindows is how many equal parts the measured window is cut into.
// This 2-vCPU box shares its host: a pure compute loop's speed drifts by
// up to 20% over tens of seconds, and a slow spell pushes the open loop
// past its knee (p95 up by half while the code is unchanged). The best
// sub-window estimates what the code does when the host lets it, which
// is what a change to the code moves; the whole-window tails (p99,
// p99.9) are still reported.
const subWindows = 5

// measured summarizes the POSTs due inside [warm, warm+measure). A
// sub-window's throughput is the inferences completed after its first
// successful response over the time from that response to its last, so
// it is not quantized by whole POSTs at the edges; its latencies are
// those of the POSTs due inside it.
func (r *loadResult) measured(warm, measure time.Duration) window {
	type sub struct {
		first, last  time.Duration
		done, firstN int
		lat          []float64
	}
	subs := make([]sub, subWindows)
	for i := range subs {
		subs[i].first = -1
	}
	part := measure / subWindows
	at := func(t time.Duration) *sub { return &subs[min(int((t-warm)/part), subWindows-1)] }
	var wd window
	for _, rec := range r.recs {
		if rec.ok && rec.end >= warm && rec.end < warm+measure {
			s := at(rec.end)
			s.done += rec.n
			if s.first < 0 || rec.end < s.first {
				s.first, s.firstN = rec.end, rec.n
			}
			s.last = max(s.last, rec.end)
		}
		if rec.due < warm || rec.due >= warm+measure {
			continue
		}
		wd.attempted += rec.n
		if !rec.ok {
			wd.failed += rec.n
			continue
		}
		l := ms(rec.end - rec.due)
		wd.lat = append(wd.lat, l)
		s := at(rec.due)
		s.lat = append(s.lat, l)
		if rec.lag >= 0 {
			wd.lags = append(wd.lags, ms(rec.lag))
		}
	}
	wd.p50, wd.p95 = math.Inf(1), math.Inf(1)
	for _, s := range subs {
		if s.last > s.first {
			wd.throughput = max(wd.throughput, float64(s.done-s.firstN)/(s.last-s.first).Seconds())
		}
		if len(s.lat) > 0 {
			sort.Float64s(s.lat)
			wd.p50 = min(wd.p50, quantile(s.lat, 0.50))
			wd.p95 = min(wd.p95, quantile(s.lat, 0.95))
		}
	}
	if math.IsInf(wd.p50, 1) {
		wd.p50, wd.p95 = math.NaN(), math.NaN()
	}
	sort.Float64s(wd.lat)
	sort.Float64s(wd.lags)
	return wd
}
