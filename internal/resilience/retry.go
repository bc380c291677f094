package resilience

import (
	"bytes"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/digest"
)

// RetryOptions shapes the retrying client's backoff policy.
//
// The backoff contract mirrors what the serving plane promises on its
// 429/503 paths: the response's Retry-After header (whole seconds,
// derived server-side from the observed drain rate) is authoritative
// when present; otherwise the delay grows exponentially from BaseDelay,
// doubling per attempt up to MaxDelay, with a deterministic jitter
// factor in [0.5, 1.0) hashed from (Seed, call index, attempt) — two
// runs at the same seed sleep the same schedule.
type RetryOptions struct {
	// MaxAttempts bounds total tries including the first (<= 0
	// selects 4).
	MaxAttempts int
	// BaseDelay is the first backoff step (<= 0 selects 25ms).
	BaseDelay time.Duration
	// MaxDelay caps every delay, including server-directed Retry-After
	// waits (<= 0 selects 1s).
	MaxDelay time.Duration
	// Seed keys the jitter schedule.
	Seed uint64
}

func (o RetryOptions) resolve() RetryOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 25 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = time.Second
	}
	return o
}

// RetryClient posts with retry: transport errors and retryable
// statuses (429 and all 5xx) back off and try again, everything else —
// including the final exhausted attempt — is returned to the caller.
// It is safe for concurrent use; Retries and Attempts aggregate across
// all callers.
type RetryClient struct {
	// HTTP is the underlying client (nil selects http.DefaultClient).
	HTTP *http.Client
	// Opts is the backoff policy (zero values resolve to defaults).
	Opts RetryOptions

	calls    atomic.Uint64
	attempts atomic.Uint64
	retries  atomic.Uint64
}

// Attempts returns the total request attempts issued.
func (c *RetryClient) Attempts() uint64 { return c.attempts.Load() }

// Retries returns how many of those attempts were retries.
func (c *RetryClient) Retries() uint64 { return c.retries.Load() }

// retryable reports whether a status code is worth another attempt:
// backpressure (429) and server-side failures (5xx), the two families
// the serving plane's resilience contract documents as transient.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// delay computes the sleep before attempt k (0-based retry index) of
// call n, honoring the server's Retry-After when given.
func (c *RetryClient) delay(o RetryOptions, call uint64, k int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			d := time.Duration(secs) * time.Second
			if d > o.MaxDelay {
				d = o.MaxDelay
			}
			return d
		}
	}
	d := o.BaseDelay << uint(k)
	if d > o.MaxDelay || d <= 0 {
		d = o.MaxDelay
	}
	// Jitter in [0.5, 1.0): deterministic per (seed, call, attempt) so
	// replayed load realizes the same sleep schedule.
	j := 0.5 + 0.5*unit(digest.Mix64(o.Seed^digest.Mix64(call*64+uint64(k))))
	return time.Duration(float64(d) * j)
}

// Post issues a POST with the retry policy. The body is replayed from
// the byte slice on every attempt. The final response (or transport
// error) is returned; the caller owns closing the body.
func (c *RetryClient) Post(url, contentType string, body []byte) (*http.Response, error) {
	resp, _, err := c.PostHeader(url, contentType, body, nil)
	return resp, err
}

// PostHeader is Post with extra request headers — a client stamps its
// per-request trace ID this way — and additionally reports
// how many attempts this one call took (>= 1), so per-request retry
// counts can be recorded without reading the client-wide aggregates.
func (c *RetryClient) PostHeader(url, contentType string, body []byte, header http.Header) (*http.Response, int, error) {
	o := c.Opts.resolve()
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	call := c.calls.Add(1) - 1
	var resp *http.Response
	var err error
	tried := 0
	for k := 0; k < o.MaxAttempts; k++ {
		if k > 0 {
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		tried++
		var req *http.Request
		req, err = http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, tried, err
		}
		req.Header.Set("Content-Type", contentType)
		for name, vs := range header {
			for _, v := range vs {
				req.Header.Add(name, v)
			}
		}
		resp, err = hc.Do(req)
		if err == nil && !retryable(resp.StatusCode) {
			return resp, tried, nil
		}
		if k == o.MaxAttempts-1 {
			break
		}
		retryAfter := ""
		if err == nil {
			retryAfter = resp.Header.Get("Retry-After")
			resp.Body.Close()
		}
		time.Sleep(c.delay(o, call, k, retryAfter))
	}
	return resp, tried, err
}
