package faults

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Run executes p on g under the plan's faults: the engine's sharded
// broadcast phase runs with an Injector wrapped around p, then the referee
// decodes — through DecodeResilient when p implements
// engine.ResilientProtocol[O], plain Decode otherwise. The returned stats
// carry the re-derived fault record and the folded Resilience verdict.
//
// Verdict folding applies two independent layers:
//
//  1. protocol layer: the resilience decoder's own damage detection
//     (checksums, parse anomalies, truncation caps) — genuine referee-side
//     detection from message contents alone;
//  2. channel layer: the fault record re-derived from the public fault
//     coins (an authenticated channel's view). Any dropped or corrupted
//     message demotes an ok verdict to degraded, so a run whose damage
//     slipped past the protocol layer is never reported ok.
//
// faultCoins must be independent of the protocol's coins (derive them
// under a distinct label) so that injecting faults never perturbs the
// protocol's own randomness.
func Run[O any](ctx context.Context, e *engine.Engine, p engine.Protocol[O], g *graph.Graph, coins *rng.PublicCoins, plan Plan, faultCoins *rng.PublicCoins) (engine.Result[O], error) {
	res, _, err := RunWithTranscript(ctx, e, p, g, coins, plan, faultCoins)
	return res, err
}

// RunWithTranscript is Run, additionally returning the sealed (faulted)
// transcript the referee decoded, so the service layer can ship the exact
// damaged transcript to remote callers. On error the partial transcript
// is still returned.
func RunWithTranscript[O any](ctx context.Context, e *engine.Engine, p engine.Protocol[O], g *graph.Graph, coins *rng.PublicCoins, plan Plan, faultCoins *rng.PublicCoins) (engine.Result[O], *engine.Transcript, error) {
	start := time.Now()
	inj := NewInjector(ctx, p, plan, faultCoins)
	transcript, stats, err := e.Execute(ctx, inj, g, coins)

	rec := plan.Evaluate(faultCoins, transcript, g.N())
	stats.Faults = engine.FaultStats{
		Injected:          plan.Active(),
		Dropped:           rec.Dropped,
		Corrupted:         rec.Corrupted,
		FlippedBits:       rec.FlippedBits,
		Straggled:         rec.Straggled,
		FeedbackDropped:   rec.FeedbackDropped,
		FeedbackCorrupted: rec.FeedbackCorrupted,
	}

	res := engine.Result[O]{Stats: *stats}
	if err != nil {
		res.Stats.Faults.Resilience = core.ResilienceFailed
		res.Stats.TotalWall = time.Since(start)
		return res, transcript, err
	}

	decodeStart := time.Now()
	var out O
	verdict := core.ResilienceOK
	if rp, ok := p.(engine.ResilientProtocol[O]); ok {
		out, verdict, err = rp.DecodeResilient(g.N(), transcript, coins)
	} else {
		out, err = p.Decode(g.N(), transcript, coins)
	}
	res.Stats.DecodeWall = time.Since(decodeStart)
	res.Stats.TotalWall = time.Since(start)
	if err != nil {
		res.Stats.Faults.Resilience = core.ResilienceFailed
		return res, transcript, fmt.Errorf("faults: decode: %w", err)
	}
	if !rec.Clean() {
		verdict = verdict.Worse(core.ResilienceDegraded)
	}
	res.Output = out
	res.Stats.Faults.Resilience = verdict
	return res, transcript, nil
}
