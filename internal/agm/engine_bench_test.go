package agm

// The engine benchmark pair the bench guard watches (scripts/bench-guard.sh,
// run by make check): the broadcast phase of the AGM spanning forest on a
// one-worker engine at n ∈ {1k, 10k}. Block runs the protocol's block
// form; Scalar runs the engine's per-vertex loop over the scalar
// reference sketcher (reference_test.go), one l0.Sketch per (vertex,
// spec) serialized bit by bit. The transcripts are bit-identical, so the
// block/scalar ns-per-op ratio measures the bank against the scalar
// path on the same machine moments apart; the guard compares the N1k
// ratio against bench/baseline.txt.

import (
	"context"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// scalarForest is a one-round engine.Broadcaster with no BroadcastBlock,
// so the engine sketches vertex by vertex, each through the scalar
// reference.
type scalarForest struct{ cfg Config }

func (scalarForest) Name() string { return "agm-spanning-forest/scalar" }

func (scalarForest) Rounds() int { return 1 }

func (s scalarForest) Broadcast(_ int, view core.VertexView, _ *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return refForestSketch(s.cfg, view, coins), nil
}

func benchEngineBroadcast(b *testing.B, n int, p engine.Broadcaster) {
	b.Helper()
	g := gen.Gnp(n, 8/float64(n), rng.NewSource(7))
	eng := &engine.Engine{Workers: 1}
	coins := rng.NewPublicCoins(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Execute(context.Background(), p, g, coins); err != nil {
			b.Fatal(err)
		}
	}
}

func blockForest() engine.Broadcaster {
	return protocol.OneRound[[]graph.Edge](NewSpanningForest(Config{}))
}

func BenchmarkEngineBlockN1k(b *testing.B) { benchEngineBroadcast(b, 1000, blockForest()) }

func BenchmarkEngineScalarN1k(b *testing.B) { benchEngineBroadcast(b, 1000, scalarForest{}) }

func BenchmarkEngineBlockN10k(b *testing.B) { benchEngineBroadcast(b, 10000, blockForest()) }

func BenchmarkEngineScalarN10k(b *testing.B) { benchEngineBroadcast(b, 10000, scalarForest{}) }
