package main

import (
	"fmt"
	"strings"
	"time"
)

// workload is one traffic mix against the serving stack.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Engine is the dot-product substrate: "exact" or "sconna-packed".
	Engine string
	// Models are the registry entries the workload boots and addresses.
	Models []string
	// Open selects the open loop: single-input JSON bodies to the legacy
	// /v1/classify alias at Rate POSTs per second. Otherwise Clients
	// closed-loop clients post Batch inputs per raw-wire POST.
	Open bool
	Rate float64
	// Routed puts a fleet router in front of the replica registry.
	Routed bool
	// Mix spreads POSTs over Models by weight (one weight per model);
	// nil sends everything to Models[0].
	Mix []int
}

const (
	// clients is the closed-loop client count and the cap on client
	// connections for every workload: the container's two CPUs.
	clients = 2
	// batch is the inputs per closed-loop POST (the server's MaxBatch).
	batch = 32
)

var workloads = []*workload{
	{
		Name:   "batched-exact",
		Why:    "32-input raw POSTs on the exact engine: batched forward, quant lowering and allocation dominate, the dot product is a plain integer loop",
		Engine: "exact", Models: []string{"default"},
	},
	{
		Name:   "batched-sc",
		Why:    "the same traffic on the sconna-packed engine at the paper point (8-bit, N=64, M=1, ADC seed 2023): the SC kernel dot dominates forward time",
		Engine: "sconna-packed", Models: []string{"default"},
	},
	{
		Name:   "single-open",
		Why:    "open loop at 2000 single-input JSON POSTs/s to /v1/classify: HTTP/JSON decoding, admission and tiny batches dominate latency",
		Engine: "exact", Models: []string{"default"}, Open: true, Rate: 2000,
	},
	{
		Name:   "routed-mix",
		Why:    "32-input raw POSTs through a fleet router to one replica holding default and alt (2:1 by seeded hash): the only router hop and two model pools",
		Engine: "exact", Models: []string{"default", "alt"}, Routed: true, Mix: []int{2, 1},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// path is the classify route a POST for model takes.
func (w *workload) path(model string) string {
	if w.Open {
		return "/v1/classify"
	}
	return "/v1/models/" + model + "/classify"
}

// perPost is how many inputs one POST carries.
func (w *workload) perPost() int {
	if w.Open {
		return 1
	}
	return batch
}

// interval is the open loop's spacing between due times.
func (w *workload) interval() time.Duration {
	return time.Duration(float64(time.Second) / w.Rate)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick returns the index into Models that POST idx addresses: a pure
// function of (seed, idx), so the realized mix of a run is known from
// the seed and the number of POSTs alone.
func (w *workload) pick(seed int64, idx int) int {
	if len(w.Mix) == 0 {
		return 0
	}
	total := 0
	for _, m := range w.Mix {
		total += m
	}
	v := int(mix64(mix64(uint64(seed))^uint64(idx)) % uint64(total))
	for i, m := range w.Mix {
		if v < m {
			return i
		}
		v -= m
	}
	return len(w.Mix) - 1
}
