package serve

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/digest"
)

// SplitModelHeader is the response header a traffic-split alias stamps
// with the variant model that actually served the request — how replay
// tooling and the split test observe the realized A/B sequence without
// parsing stats.
const SplitModelHeader = "X-Split-Model"

// split is one A/B traffic split: an alias name routing to two
// registered models with a deterministic per-request variant choice.
// The chooser hashes (seed, per-split request counter) through the
// splitmix64 finalizer, so the realized variant sequence is a pure
// function of the seed and the request order — replaying the same
// request count against the same seed realizes bit-identical routing,
// independent of client concurrency (the counter is atomic, and
// whichever request draws sequence number k gets variant(k)).
type split struct {
	alias string
	a, b  string
	fracB float64
	seed  uint64

	seq              atomic.Uint64 // next request's sequence number
	servedA, servedB atomic.Uint64
}

// variant returns the model name for sequence number k.
func (sp *split) variant(k uint64) string {
	// Map the hash to [0, 1) with 53-bit precision (an exact float64)
	// and compare against the B fraction: fracB of the hash space —
	// hence, in the limit, fracB of the traffic — goes to B.
	if float64(digest.Mix64(sp.seed^k)>>11)/float64(1<<53) < sp.fracB {
		return sp.b
	}
	return sp.a
}

// SetSplit installs (or replaces) a traffic-split alias: requests to
// POST /v1/models/{alias}/classify route to modelA or modelB, with
// fraction fracB of the hash space going to B, chosen per request by a
// seeded splitmix64 hash of the split's request counter. Both models
// must already be registered, and the alias must not collide with a
// registered model name (registered models always win resolution, so a
// shadowed alias would be unreachable). Replacing an existing alias
// resets its counters.
func (r *Registry) SetSplit(alias, modelA, modelB string, fracB float64, seed uint64) error {
	if err := validModelName(alias); err != nil {
		return err
	}
	if fracB < 0 || fracB > 1 {
		return fmt.Errorf("serve: split fraction %v outside [0, 1]", fracB)
	}
	if _, err := r.Get(modelA); err != nil {
		return fmt.Errorf("serve: split variant A: %w", err)
	}
	if _, err := r.Get(modelB); err != nil {
		return fmt.Errorf("serve: split variant B: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRegistryClosed
	}
	if _, dup := r.models[alias]; dup {
		return fmt.Errorf("serve: split alias %q is a registered model", alias)
	}
	r.splits[alias] = &split{alias: alias, a: modelA, b: modelB, fracB: fracB, seed: seed}
	return nil
}

// ClearSplit removes a traffic-split alias. The underlying models stay
// registered and routable by their own names.
func (r *Registry) ClearSplit(alias string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.splits[alias]; !ok {
		return fmt.Errorf("%w: split alias %q", ErrUnknownModel, alias)
	}
	delete(r.splits, alias)
	return nil
}

// SplitInfo is one traffic split's section of the registry stats
// document.
type SplitInfo struct {
	Alias  string  `json:"alias"`
	ModelA string  `json:"model_a"`
	ModelB string  `json:"model_b"`
	FracB  float64 `json:"frac_b"`
	Seed   uint64  `json:"seed"`
	// Requests counts classify calls that resolved through the alias;
	// ServedA/ServedB break them down by chosen variant.
	Requests uint64 `json:"requests"`
	ServedA  uint64 `json:"served_a"`
	ServedB  uint64 `json:"served_b"`
}

// Splits snapshots the registry's traffic-split aliases, sorted by
// alias.
func (r *Registry) Splits() []SplitInfo {
	r.mu.RLock()
	sps := make([]*split, 0, len(r.splits))
	for _, sp := range r.splits {
		sps = append(sps, sp)
	}
	r.mu.RUnlock()
	sort.Slice(sps, func(i, j int) bool { return sps[i].alias < sps[j].alias })
	out := make([]SplitInfo, len(sps))
	for i, sp := range sps {
		out[i] = SplitInfo{
			Alias: sp.alias, ModelA: sp.a, ModelB: sp.b, FracB: sp.fracB, Seed: sp.seed,
			Requests: sp.seq.Load(), ServedA: sp.servedA.Load(), ServedB: sp.servedB.Load(),
		}
	}
	return out
}

// resolveSplit routes one request through a traffic-split alias:
// it draws the next sequence number, picks the variant and returns that
// model. ok is false when name is not an alias or the chosen variant is
// no longer registered (the caller 404s either way).
func (r *Registry) resolveSplit(name string) (*Model, string, bool) {
	r.mu.RLock()
	sp := r.splits[name]
	r.mu.RUnlock()
	if sp == nil {
		return nil, "", false
	}
	k := sp.seq.Add(1) - 1
	chosen := sp.variant(k)
	m, err := r.Get(chosen)
	if err != nil {
		return nil, "", false
	}
	if chosen == sp.b {
		sp.servedB.Add(1)
	} else {
		sp.servedA.Add(1)
	}
	return m, chosen, true
}
