package wire

import (
	"context"
	"testing"

	"repro/internal/bitio"
	"repro/internal/engine"
	"repro/internal/rng"
)

// perVertex wraps a protocol so that only engine.ResilientProtocol's
// methods are promoted: the engine (and the fault injector) see no
// BroadcastBlock and sketch vertex by vertex, while the resilient decode
// stays the protocol's own.
type perVertex struct {
	engine.ResilientProtocol[Outcome]
}

// adaptivePerVertex is perVertex that also forwards the referee's
// feedback, for adaptive protocols.
type adaptivePerVertex struct {
	perVertex
	adaptive engine.Adaptive
}

func (p adaptivePerVertex) Feedback(round int, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return p.adaptive.Feedback(round, t, coins)
}

// hideBlock returns p with its block form hidden and every other
// capability it has kept.
func hideBlock(p engine.ResilientProtocol[Outcome]) engine.Protocol[Outcome] {
	if a, ok := p.(engine.Adaptive); ok {
		return adaptivePerVertex{perVertex{p}, a}
	}
	return perVertex{p}
}

// TestBlockExecutionParity is the equivalence gate for columnar
// execution: every smoke spec — all registered protocols, including the
// faulted and feedback-faulted runs — produces the identical transcript
// digest, outcome, and bit accounting through ExecuteSpec and through
// the same engine and fault calls with the protocol's block form hidden,
// at Workers ∈ {1, 2, 8}. Because the smoke specs are also pinned
// against the committed golden fixtures (smoke parity + fixture
// round-trip tests), passing here means the per-vertex path reproduces
// the committed bytes too.
func TestBlockExecutionParity(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		for _, spec := range SmokeSpecs(workers) {
			g, err := BuildGraph(spec.Graph)
			if err != nil {
				t.Fatal(err)
			}
			build, err := lookupProtocol(spec.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			p, ok := build(g).(engine.ResilientProtocol[Outcome])
			if !ok {
				t.Fatalf("%s: protocol lacks DecodeResilient", spec.Label)
			}
			scalar, err := execute(ctx, spec, g, hideBlock(p))
			if err != nil {
				t.Fatalf("workers=%d %s: per-vertex run: %v", workers, spec.Label, err)
			}
			block, err := ExecuteSpec(ctx, spec)
			if err != nil {
				t.Fatalf("workers=%d %s: block run: %v", workers, spec.Label, err)
			}
			if got, want := block.Digest(), scalar.Digest(); got != want {
				t.Errorf("workers=%d %s: block digest %s, per-vertex %s", workers, spec.Label, got, want)
			}
			if got, want := block.Outcome, scalar.Outcome; got != want {
				t.Errorf("workers=%d %s: block outcome %+v, per-vertex %+v", workers, spec.Label, got, want)
			}
			if got, want := block.Stats.TotalBits, scalar.Stats.TotalBits; got != want {
				t.Errorf("workers=%d %s: block TotalBits %d, per-vertex %d", workers, spec.Label, got, want)
			}
			if got, want := block.Stats.MaxMessageBits, scalar.Stats.MaxMessageBits; got != want {
				t.Errorf("workers=%d %s: block MaxMessageBits %d, per-vertex %d", workers, spec.Label, got, want)
			}
			if got, want := block.Stats.FeedbackBits, scalar.Stats.FeedbackBits; got != want {
				t.Errorf("workers=%d %s: block FeedbackBits %d, per-vertex %d", workers, spec.Label, got, want)
			}
		}
	}
}
