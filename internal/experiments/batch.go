package experiments

// Engine-batch drivers for the one-round experiment sweeps. Every
// experiment that used to hand-roll a sketch-all-vertices loop (or call
// core.Run / core.EstimateSuccess directly) now routes its trials
// through engine.RunBatch: trials run across the shared worker pool,
// each job sequential inside, so tables are byte-identical for every
// -workers value while inheriting the engine's bit accounting.
//
// The one determinism rule callers must follow: anything drawn from a
// shared rng.Source (graphs, cut sides, weights) must be drawn BEFORE
// batching, in the exact order the sequential sweep drew it. Protocol
// runs consume only their per-job coins, so pre-drawing inputs and then
// batching preserves every byte.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// oneRoundJob wraps a one-round sketching protocol as an engine batch
// job via the congested-clique embedding.
func oneRoundJob[O any](label string, p core.Protocol[O], g *graph.Graph, coins *rng.PublicCoins) engine.Job[O] {
	return engine.Job[O]{Label: label, Protocol: protocol.OneRound[O](p), Graph: g, Coins: coins}
}

// runOneRoundBatch executes one-round jobs over the shared engine pool.
// Per-job errors stay in the results; the returned error is only a
// context cancellation.
func runOneRoundBatch[O any](jobs []engine.Job[O]) ([]engine.JobResult[O], error) {
	return engine.RunBatch(context.Background(), newEngine(), jobs)
}

// estimateSuccessBatch is core.EstimateSuccess rerouted through
// engine.RunBatch, with identical semantics: per-trial coins are derived
// as coins.Derive("trial").DeriveIndex(i), protocol errors count as
// failures rather than aborting, and errored trials still contribute
// their message bits. build must return a FRESH protocol per call (jobs
// run concurrently); sample(i) is called in trial order before any job
// runs, so shared-source draws stay sequential.
func estimateSuccessBatch[O any](build func() core.Protocol[O], sample func(trial int) core.Trial[O], trials int, coins *rng.PublicCoins) core.Stats {
	var stats core.Stats
	stats.Trials = trials
	trialData := make([]core.Trial[O], trials)
	jobs := make([]engine.Job[O], trials)
	for i := 0; i < trials; i++ {
		trialData[i] = sample(i)
		jobs[i] = oneRoundJob(fmt.Sprintf("trial-%d", i), build(), trialData[i].Graph,
			coins.Derive("trial").DeriveIndex(i))
	}
	results, _ := runOneRoundBatch(jobs)
	sum := 0
	for i, jr := range results {
		maxBits := jr.Result.Stats.MaxMessageBits
		if maxBits > stats.MaxSketchBits {
			stats.MaxSketchBits = maxBits
		}
		sum += maxBits
		if jr.Err != nil {
			continue
		}
		if trialData[i].Verify(jr.Result.Output) {
			stats.Successes++
		}
	}
	if trials > 0 {
		stats.AvgSketchBits = float64(sum) / float64(trials)
	}
	return stats
}
