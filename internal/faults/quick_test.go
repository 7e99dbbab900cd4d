package faults

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dynstream"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/rng"
)

// neverSilentlyOK is the resilience contract as a randomized property:
// for any graph and any (bounded) fault plan, a run whose verdict is ok
// must produce an output that passes external verification. Degraded and
// failed runs may be wrong — that is what the verdicts are for — but a
// silent wrong answer is a contract violation.
func neverSilentlyOK[O any](t *testing.T, newProto func() engine.Protocol[O], verify func(*graph.Graph, O) bool) {
	t.Helper()
	f := func(gs, fs uint64, dropB, corB uint8) bool {
		n := 20 + int(gs%16)
		g := gen.Gnp(n, 0.25, rng.NewSource(gs))
		plan := Plan{
			DropProb:    float64(dropB%40) / 100, // 0 .. 0.39
			CorruptProb: float64(corB%40) / 100,
			FlipBits:    1 + int(corB%4),
		}
		coins := rng.NewPublicCoins(gs ^ 0x9e3779b9)
		faultCoins := rng.NewPublicCoins(fs).Derive("faults")
		res, err := Run(context.Background(), &engine.Engine{Workers: 2}, newProto(), g, coins, plan, faultCoins)
		if err != nil {
			// Errors must be classified failed, never ok.
			return res.Stats.Faults.Resilience == core.ResilienceFailed
		}
		if res.Stats.Faults.Resilience == core.ResilienceOK {
			return verify(g, res.Output)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickMMNeverSilentlyOK(t *testing.T) {
	neverSilentlyOK(t,
		func() engine.Protocol[[]graph.Edge] { return matchproto.NewTwoRound() },
		func(g *graph.Graph, out []graph.Edge) bool { return graph.IsMaximalMatching(g, out) })
}

func TestQuickMISNeverSilentlyOK(t *testing.T) {
	neverSilentlyOK(t,
		func() engine.Protocol[[]int] { return misproto.NewTwoRound() },
		func(g *graph.Graph, out []int) bool { return graph.IsMaximalIndependentSet(g, out) })
}

// TestQuickSemiStreamNeverSilentlyOK holds the semi-streaming matching's
// pass walker to the same contract: an ok verdict means a matching of g
// within the protocol's ε of the maximum.
func TestQuickSemiStreamNeverSilentlyOK(t *testing.T) {
	eps := dynstream.NewSemiStream(0).EpsOf()
	neverSilentlyOK(t,
		func() engine.Protocol[[]graph.Edge] { return dynstream.NewSemiStream(eps) },
		func(g *graph.Graph, out []graph.Edge) bool { return dynstream.IsApproxMaximumMatching(g, out, eps) })
}

// TestQuickCleanPlansStayOK: with no drop/corrupt probability the verdict
// is always ok and the output always verifies, for any seed — the faults
// layer must be a strict no-op on clean plans.
func TestQuickCleanPlansStayOK(t *testing.T) {
	f := func(gs uint64, straggle bool) bool {
		n := 20 + int(gs%16)
		g := gen.Gnp(n, 0.25, rng.NewSource(gs))
		plan := Plan{}
		if straggle {
			plan.StragglerProb = 0.3
			plan.StragglerDelay = 10000 // 10µs
		}
		coins := rng.NewPublicCoins(gs ^ 0x51ed270b)
		faultCoins := rng.NewPublicCoins(gs + 1).Derive("faults")
		res, err := Run(context.Background(), &engine.Engine{Workers: 2}, matchproto.NewTwoRound(), g, coins, plan, faultCoins)
		if err != nil {
			return false
		}
		return res.Stats.Faults.Resilience == core.ResilienceOK &&
			graph.IsMaximalMatching(g, res.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
