package dynstream

import (
	"testing"

	"repro/internal/l0"
	"repro/internal/rng"
)

// benchStream is a steady-state churn workload: one epoch-sized batch of
// mixed inserts and deletes over a 1k-vertex graph held at ~4k edges.
func benchStream(b *testing.B) (*Stream, []l0.Spec) {
	b.Helper()
	spec := Spec{N: 1000, Epochs: 1, OpsPerEpoch: 4096, Pattern: PatternChurn,
		TargetEdges: 4000, Churn: 0.4, Seed: 77}
	s, err := Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return s, Samplers(s.N(), 4, rng.NewPublicCoins(78))
}

// BenchmarkDynStreamApplyBlock measures incremental maintenance
// throughput: the batch flushed through the columnar Bank/UpdateBlock
// path. The reported sketch-updates/s counts one update per (op,
// endpoint, spec) triple.
func BenchmarkDynStreamApplyBlock(b *testing.B) {
	s, specs := benchStream(b)
	ops := s.Ops()
	m := NewMaintainer(s.N(), specs, Options{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyBatch(ops)
	}
	b.StopTimer()
	updates := float64(len(ops)) * 2 * float64(len(specs))
	b.ReportMetric(updates*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}
