package ethselfish_test

import (
	"testing"

	"github.com/ethselfish/ethselfish/internal/benchwork"
)

// BenchmarkWorkloads runs the shared workload table (internal/benchwork),
// the same workloads and output checks cmd/ethbench runs, one sub-benchmark
// per workload: `go test -run=NONE -bench='Workloads/fig8-quick$' .`
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range benchwork.Workloads {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			w.Run(b, 0)
		})
	}
}
