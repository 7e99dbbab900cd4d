package repro_test

// One benchmark per experiment of DESIGN.md §3. Each regenerates the
// corresponding EXPERIMENTS.md table at small scale (use
// cmd/sketchlab -scale full for the recorded full-scale numbers) and
// reports throughput so regressions in the underlying machinery surface
// here.
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"io"
	"testing"

	"repro/internal/agm"
	"repro/internal/cclique"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := run(experiments.Small, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1RSGraphConstruction(b *testing.B) {
	benchExperiment(b, experiments.E1RSConstruction)
}

func BenchmarkE2HardDistribution(b *testing.B) {
	benchExperiment(b, experiments.E2HardDistribution)
}

func BenchmarkE3Claim31(b *testing.B) {
	benchExperiment(b, experiments.E3Claim31)
}

func BenchmarkE4InformationChain(b *testing.B) {
	benchExperiment(b, experiments.E4InformationChain)
}

func BenchmarkE5MatchingLowerBound(b *testing.B) {
	benchExperiment(b, experiments.E5MatchingLowerBound)
}

func BenchmarkE6MISReduction(b *testing.B) {
	benchExperiment(b, experiments.E6MISReduction)
}

func BenchmarkE7MISLowerBound(b *testing.B) {
	benchExperiment(b, experiments.E7MISLowerBound)
}

func BenchmarkE8AGMSpanningForest(b *testing.B) {
	benchExperiment(b, experiments.E8AGMSpanningForest)
}

func BenchmarkE9BridgeFinding(b *testing.B) {
	benchExperiment(b, experiments.E9BridgeFinding)
}

func BenchmarkE10Coloring(b *testing.B) {
	benchExperiment(b, experiments.E10Coloring)
}

func BenchmarkE11TwoRound(b *testing.B) {
	benchExperiment(b, experiments.E11TwoRound)
}

func BenchmarkE12BCCEquivalence(b *testing.B) {
	benchExperiment(b, experiments.E12BCCEquivalence)
}

func BenchmarkE13Certificates(b *testing.B) {
	benchExperiment(b, experiments.E13Certificates)
}

func BenchmarkE14BudgetScaling(b *testing.B) {
	benchExperiment(b, experiments.E14BudgetScaling)
}

func BenchmarkE15RandomnessHierarchy(b *testing.B) {
	benchExperiment(b, experiments.E15RandomnessHierarchy)
}

func BenchmarkE16MSTEstimator(b *testing.B) {
	benchExperiment(b, experiments.E16MSTEstimator)
}

func BenchmarkE17CutSparsifier(b *testing.B) {
	benchExperiment(b, experiments.E17CutSparsifier)
}

func BenchmarkE18DegeneracyDensest(b *testing.B) {
	benchExperiment(b, experiments.E18DegeneracyDensest)
}

func BenchmarkE19TriangleCounting(b *testing.B) {
	benchExperiment(b, experiments.E19TriangleCounting)
}

func BenchmarkE20ResilienceSweep(b *testing.B) {
	benchExperiment(b, experiments.E20ResilienceSweep)
}

func BenchmarkE60ConnectivityLowerBound(b *testing.B) {
	benchExperiment(b, experiments.E60ConnectivityLowerBound)
}

// Engine benchmarks: the broadcast phase of the AGM spanning-forest
// sketch (per-vertex work is the protocol's real hot path; Decode is
// referee-side and inherently sequential) at n ∈ {1k, 10k}, sequential
// (1 worker) vs parallel (GOMAXPROCS workers). The engine's determinism
// contract makes the two transcripts bit-identical, so this measures pure
// scheduling win. Numbers are recorded in EXPERIMENTS.md § Engine. The
// block-vs-scalar pair the bench guard watches lives with the scalar
// reference sketcher, in internal/agm's tests.
func benchEngineBroadcast(b *testing.B, n, workers int) {
	b.Helper()
	g := gen.Gnp(n, 8/float64(n), rng.NewSource(7))
	p := &cclique.OneRound[[]graph.Edge]{P: agm.NewSpanningForest(agm.Config{})}
	eng := &engine.Engine{Workers: workers}
	coins := rng.NewPublicCoins(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Execute(context.Background(), p, g, coins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSequentialN1k(b *testing.B) { benchEngineBroadcast(b, 1000, 1) }

func BenchmarkEngineParallelN1k(b *testing.B) { benchEngineBroadcast(b, 1000, 0) }

func BenchmarkEngineSequentialN10k(b *testing.B) { benchEngineBroadcast(b, 10000, 1) }

func BenchmarkEngineParallelN10k(b *testing.B) { benchEngineBroadcast(b, 10000, 0) }
