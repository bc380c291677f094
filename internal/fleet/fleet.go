// Package fleet is the multi-node distribution plane of the serving
// stack: it scales the single-box model registry (internal/serve) and
// the cache-aware sweep runners (internal/accel, internal/scalability)
// across machines using the digest substrate the repository already
// runs on.
//
// Three pieces compose it:
//
//   - An artifact store (DiskStore, HTTPStore): digest-keyed Put/Get/List
//     of quantized-model artifacts (quant.Save bytes) with the same
//     atomic temp-file+rename writes as the result cache. Replicas pull
//     models by digest and validate what they received by re-hashing —
//     a store can be corrupted, swapped or stale, but it can never make
//     a replica serve bytes that don't match the requested version.
//
//   - A router (Router): consistent-hashes model names onto a replica
//     ring (Ring — bounded-load rendezvous hashing over the splitmix64
//     finalizer, a pure function of the member set) and proxies
//     /v1/models/{name}/classify with deadline propagation, per-replica
//     circuit breakers (internal/resilience) and candidate-order
//     failover. Membership or model-set changes rebalance the table
//     deterministically.
//
//   - Shard coordinates (Shard): the "-shard i/n" contract CLI sweeps
//     use to split a deterministic job list across machines via
//     parallel.Spans, so a directory union of the shards' stores is
//     byte-identical to a single-machine run.
package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/digest"
	"repro/internal/parallel"
)

// hash64 folds a string through digest.Mix64 (splitmix64) byte by
// byte, so model→replica assignment is a documented pure function, not
// an accident of a map iteration or a library version. Deterministic
// across processes and releases by construction (no seed, no
// map-iteration dependence), which is what lets two routers with the
// same member set route identically with no coordination.
func hash64(s string) uint64 {
	h := uint64(len(s))
	for i := 0; i < len(s); i++ {
		h = digest.Mix64(h ^ uint64(s[i]))
	}
	return h
}

// Shard is one coordinate of an N-way sweep partition: index Index of
// Count contiguous shards. The zero value means "unsharded".
type Shard struct {
	Index, Count int
}

// ParseShard parses the CLI "-shard i/n" syntax. "" is the unsharded
// zero value; otherwise i/n with 0 <= i < n is required.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("fleet: shard %q is not i/n", s)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return Shard{}, fmt.Errorf("fleet: shard index %q: %w", is, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return Shard{}, fmt.Errorf("fleet: shard count %q: %w", ns, err)
	}
	if n < 1 || i < 0 || i >= n {
		return Shard{}, fmt.Errorf("fleet: shard %d/%d out of range (want 0 <= i < n)", i, n)
	}
	return Shard{Index: i, Count: n}, nil
}

// Enabled reports whether the coordinate names a real partition (a
// parsed -shard flag) rather than the unsharded zero value.
func (s Shard) Enabled() bool { return s.Count > 0 }

// Span returns this shard's slice of an n-item job list, via the same
// parallel.Spans partition every deterministic sweep uses.
func (s Shard) Span(n int) parallel.Span {
	if !s.Enabled() {
		return parallel.Span{Lo: 0, Hi: n}
	}
	return parallel.ShardSpan(n, s.Index, s.Count)
}

// String formats the coordinate back into the CLI syntax.
func (s Shard) String() string {
	if !s.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}
