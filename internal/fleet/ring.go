package fleet

import (
	"sort"

	"repro/internal/digest"
)

// Ring is a consistent-hash view of a replica member set. Assignment
// uses rendezvous (highest-random-weight) hashing over the splitmix64
// finalizer with a bounded-load cap: every (model, member) pair gets a
// deterministic score, each model prefers its highest-scoring member,
// and no member takes more than LoadFactor times its fair share. The
// result is a pure function of (member set, model set) — two routers
// that agree on those agree on every route with no coordination — and
// a member change moves only the models that hashed onto it (plus any
// spill the load cap forces), never a full reshuffle.
type Ring struct {
	members []string // sorted, deduplicated
}

// DefaultLoadFactor is the bounded-load headroom: a member accepts at
// most ceil(models/members * DefaultLoadFactor) primaries before
// assignment spills to the next candidate in score order.
const DefaultLoadFactor = 1.25

// NewRing builds a ring over the given members (order-insensitive;
// duplicates and empty names are dropped).
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
	}
	sort.Strings(out)
	return &Ring{members: out}
}

// Members returns the sorted member set.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// score is the rendezvous weight of (model, member). Both operands go
// through hash64 before mixing so structurally different pairs ("ab","c"
// vs "a","bc") can never collide by concatenation.
func score(model, member string) uint64 {
	return digest.Mix64(hash64(model) ^ digest.Mix64(hash64(member)))
}

// Candidates returns the members in descending preference order for the
// model: primary first, then the failover sequence the router walks when
// a breaker is open or a proxy attempt fails. Ties (astronomically rare)
// break by name so the order stays total and deterministic.
func (r *Ring) Candidates(model string) []string {
	out := append([]string(nil), r.members...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(model, out[i]), score(model, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Assign maps every model onto a member with bounded load: models are
// placed in sorted-name order, each onto its highest-scoring member
// that still has capacity ceil(len(models)/len(members) * loadFactor).
// loadFactor <= 1 selects DefaultLoadFactor. An empty ring returns nil.
// The sorted placement order makes the spill — not just the scores —
// a pure function of the two sets, which the golden routing test pins.
func (r *Ring) Assign(models []string, loadFactor float64) map[string]string {
	if len(r.members) == 0 || len(models) == 0 {
		return nil
	}
	if loadFactor <= 1 {
		loadFactor = DefaultLoadFactor
	}
	sorted := append([]string(nil), models...)
	sort.Strings(sorted)
	fair := float64(len(sorted)) / float64(len(r.members))
	bound := int(fair*loadFactor + 0.999999)
	if bound < 1 {
		bound = 1
	}
	load := make(map[string]int, len(r.members))
	out := make(map[string]string, len(sorted))
	for _, model := range sorted {
		if _, dup := out[model]; dup {
			continue
		}
		for _, member := range r.Candidates(model) {
			if load[member] < bound {
				out[model] = member
				load[member]++
				break
			}
		}
		if _, ok := out[model]; !ok {
			// Every member is at cap (cap*members >= models makes this
			// unreachable, but a defensive fallback beats dropping a model):
			// take the primary regardless of load.
			primary := r.Candidates(model)[0]
			out[model] = primary
			load[primary]++
		}
	}
	return out
}
