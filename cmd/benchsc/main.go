// Command benchsc runs the SC-kernel benchmark bodies (internal/scbench)
// through testing.Benchmark and emits BENCH_sc.json — ns/op per leg plus
// the packed-vs-scalar dot speedups at the paper point (8-bit streams)
// and the gated stream-scaling point (12-bit streams, the core's maximum
// precision) — so successive PRs can diff the trajectory without parsing
// `go test -bench` text.
//
// Usage:
//
//	benchsc [-out BENCH_sc.json] [-check] [-min-speedup 10] [-min-speedup-paper 3]
//
// With -check the command exits nonzero when the packed engine's dot is
// slower than min-speedup times the scalar reference on the
// stream-scaling shape, or slower than min-speedup-paper times scalar on
// the paper shape — the CI regression gates for the SC compute plane.
// The stream-scaling gate is the primary one: the packed engine's
// closed-form count is O(1) per lane where the scalar stream walk is
// O(2^B/64), and the 12-bit shape is where that structural advantage
// must hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/scbench"
)

// entry is one benchmark's trajectory record.
type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// report is the BENCH_sc.json wire format. Schema-tagged like the digest
// contracts: consumers key on the tag, not on field presence.
type report struct {
	Schema     string  `json:"schema"`
	GoMaxProcs int     `json:"go_max_procs"`
	Benchmarks []entry `json:"benchmarks"`
	// SpeedupMaxB is scalar/packed dot ns at the gated stream-scaling
	// shape (B=12); SpeedupPaper is the same ratio at the 8-bit paper
	// shape.
	SpeedupMaxB  float64 `json:"packed_dot_speedup_vs_scalar_maxb"`
	SpeedupPaper float64 `json:"packed_dot_speedup_vs_scalar_paper"`
}

func main() {
	out := flag.String("out", "BENCH_sc.json", "trajectory output path")
	check := flag.Bool("check", false, "fail when packed dot speedups fall below the floors")
	minSpeedup := flag.Float64("min-speedup", 10, "minimum packed-vs-scalar dot speedup at the stream-scaling shape")
	minSpeedupPaper := flag.Float64("min-speedup-paper", 3, "minimum packed-vs-scalar dot speedup at the paper shape")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"scalar_dot", scbench.ScalarDot},
		{"packed_dot", scbench.PackedDot},
		{"packed_dot_batch", scbench.PackedDotBatch},
		{"packed_tile", scbench.PackedTile},
		{"scalar_dot_maxb", scbench.ScalarDotMaxB},
		{"packed_dot_maxb", scbench.PackedDotMaxB},
	}

	rep := report{Schema: "repro/bench_sc@v2", GoMaxProcs: runtime.GOMAXPROCS(0)}
	perOp := map[string]float64{}
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		e := entry{
			Name:        bench.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		perOp[bench.name] = e.NsPerOp
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Fprintf(os.Stderr, "%-24s %14.0f ns/op %10d allocs/op\n", bench.name, e.NsPerOp, e.AllocsPerOp)
	}
	rep.SpeedupMaxB = perOp["scalar_dot_maxb"] / perOp["packed_dot_maxb"]
	rep.SpeedupPaper = perOp["scalar_dot"] / perOp["packed_dot"]
	fmt.Fprintf(os.Stderr, "packed dot speedup vs scalar: %.1fx at B=12 (gated), %.1fx at B=8\n",
		rep.SpeedupMaxB, rep.SpeedupPaper)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *check {
		if rep.SpeedupMaxB < *minSpeedup {
			fatal(fmt.Errorf("packed dot speedup %.2fx at the stream-scaling shape below the %.2fx gate",
				rep.SpeedupMaxB, *minSpeedup))
		}
		if rep.SpeedupPaper < *minSpeedupPaper {
			fatal(fmt.Errorf("packed dot speedup %.2fx at the paper shape below the %.2fx gate",
				rep.SpeedupPaper, *minSpeedupPaper))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsc:", err)
	os.Exit(1)
}
