package sckernel_test

import (
	"testing"

	"repro/internal/scbench"
)

// Standard-suite wrappers over the shared bench bodies; cmd/benchsc runs
// the same bodies through testing.Benchmark for BENCH_sc.json.

func BenchmarkSCScalarDot(b *testing.B)      { scbench.ScalarDot(b) }
func BenchmarkSCPackedDot(b *testing.B)      { scbench.PackedDot(b) }
func BenchmarkSCPackedDotBatch(b *testing.B) { scbench.PackedDotBatch(b) }
func BenchmarkSCPackedTile(b *testing.B)     { scbench.PackedTile(b) }
func BenchmarkSCScalarDotMaxB(b *testing.B)  { scbench.ScalarDotMaxB(b) }
func BenchmarkSCPackedDotMaxB(b *testing.B)  { scbench.PackedDotMaxB(b) }
