// Package parallel provides the bounded-concurrency substrate shared by
// the reproduction's evaluation engines: the performance-plane design-space
// sweeps (internal/accel, internal/scalability), the functional-plane
// batched inference (internal/quant, internal/accuracy) and dataset
// generation (internal/dataset).
//
// Every helper here is deterministic by construction: work is identified
// by index, results are collected in index order, and errors aggregate in
// index order — so the outcome of a parallel run depends only on the work
// function, never on worker count or goroutine scheduling. Callers that
// hold per-worker state (e.g. an engine's scratch) key that state off the
// shard index, not the goroutine, which is what makes parallel evaluation
// bit-identical to the serial path.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values >= 1 pass through,
// anything else (0, negative) selects GOMAXPROCS.
func Workers(requested int) int {
	if requested >= 1 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines. All indices run even when some fail; the returned error
// joins every per-index failure in index order (deterministic regardless
// of scheduling). workers <= 0 selects GOMAXPROCS.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	if w == 1 {
		// Serial fast path: no goroutines, same index order, same
		// aggregation — the reference the parallel path must match.
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return join(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return join(errs)
}

func join(errs []error) error {
	var nonNil []error
	for i, e := range errs {
		if e != nil {
			nonNil = append(nonNil, fmt.Errorf("item %d: %w", i, e))
		}
	}
	return errors.Join(nonNil...)
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines
// and returns the results in index order. On error the slice is nil and
// the error aggregates per-index failures in index order.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, e := fn(i)
		if e != nil {
			return e
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Span is one contiguous index range [Lo, Hi) of a sharded work list.
type Span struct{ Lo, Hi int }

// Len returns the span size.
func (s Span) Len() int { return s.Hi - s.Lo }

// Spans shards n items into contiguous spans of at most size items. The
// partition depends only on (n, size) — never on worker count — which is
// what lets per-span state (seeded streams, accumulator cores) reproduce the
// serial result exactly under any parallelism.
func Spans(n, size int) []Span {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = n
	}
	out := make([]Span, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Span{Lo: lo, Hi: hi})
	}
	return out
}

// ShardSpan returns shard i of a work list of n items partitioned into
// `of` contiguous shards via Spans(n, ceil(n/of)): a pure function of
// (n, i, of), so N machines that agree on the job list agree on the
// partition with no coordination. Shards beyond the span list (possible
// when of > n) are empty. i outside [0, of) or of < 1 panics — shard
// coordinates come from operator input and a typo must not silently
// compute the wrong slice.
func ShardSpan(n, i, of int) Span {
	if of < 1 || i < 0 || i >= of {
		panic(fmt.Sprintf("parallel: shard %d/%d is not a valid partition coordinate", i, of))
	}
	if n <= 0 {
		return Span{}
	}
	spans := Spans(n, (n+of-1)/of)
	if i >= len(spans) {
		return Span{Lo: n, Hi: n}
	}
	return spans[i]
}
