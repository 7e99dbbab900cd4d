package experiments

// E50: approximation vs. passes vs. churn on dynamic streams. The
// semi-streaming (1+ε) matching protocol trades referee passes (2⌈1/ε⌉+2)
// for approximation quality; this sweep drives it over the epochs of
// seed-derived churn streams and tabulates, per (churn rate, ε), the
// worst epoch's |M|/|M*| ratio against blossom ground truth plus the
// communication split the adaptive engine accounts per lane. The stream
// itself is maintained incrementally (at one and at two apply workers),
// and the row's digest column pins that both runs agree with a
// from-scratch rebuild at every epoch — the tentpole determinism
// invariant, surfaced as an experiment artifact.

import (
	"context"
	"fmt"

	"repro/internal/dynstream"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// E50DynamicMatching sweeps the semi-streaming matching protocol across
// churn rates and ε, evaluating it at every epoch of each stream.
func E50DynamicMatching(scale Scale, seed uint64) ([]*Table, error) {
	coins := rng.NewPublicCoins(seed ^ 0x50d15c0)
	n, epochs, opsPerEpoch, target := 60, 3, 120, 140
	churns := []float64{0.1, 0.4}
	epsilons := []float64{0.5, 0.25}
	if scale == Full {
		n, epochs, opsPerEpoch, target = 100, 4, 220, 320
		churns = append(churns, 0.7)
		epsilons = append(epsilons, 0.125)
	}
	t := &Table{
		ID:    "E50",
		Title: "Dynamic streams: (1+eps) matching quality vs. passes vs. churn",
		Columns: []string{
			"churn", "eps", "passes", "epochs ok",
			"min ratio", "player bits", "feedback bits", "sketch digest ok",
		},
		Notes: []string{
			"min ratio = worst epoch's |M|/|M*| against blossom ground truth; the protocol guarantees >= 1-eps at every epoch",
			"player/feedback bits = max over epochs of uplink vs. referee downlink totals; passes = 2*ceil(1/eps)+2",
			"sketch digest ok = incremental maintenance (Workers=1 and Workers=2) matched a from-scratch rebuild at every epoch",
		},
	}
	eng := newEngine()
	for _, churn := range churns {
		stream, err := dynstream.Generate(dynstream.Spec{
			N: n, Epochs: epochs, OpsPerEpoch: opsPerEpoch,
			Pattern: dynstream.PatternChurn, TargetEdges: target, Churn: churn,
			Seed: seed ^ uint64(churn*1000),
		})
		if err != nil {
			return nil, err
		}

		// Maintain the stream's sketches incrementally at each worker
		// count and compare every checkpoint against a from-scratch
		// rebuild: the epoch-parity invariant, re-proven on the sweep's
		// own data.
		specs := dynstream.Samplers(n, 2, coins.Derive("e50-samplers"))
		digestOK := true
		for _, workers := range []int{1, 2} {
			run := dynstream.Process(stream, specs, dynstream.Options{Workers: workers})
			if err := dynstream.VerifyEpochParity(run, specs); err != nil {
				digestOK = false
			}
		}

		// Materialize the per-epoch graphs once; every ε variant below
		// is evaluated against the same prefix snapshots.
		graphs := make([]*graph.Graph, epochs)
		for e := 0; e < epochs; e++ {
			graphs[e] = stream.GraphAt(e)
		}

		for _, eps := range epsilons {
			p := dynstream.NewSemiStream(eps)
			jobs := make([]engine.Job[[]graph.Edge], epochs)
			for e := range jobs {
				jobs[e] = engine.Job[[]graph.Edge]{
					Label:    fmt.Sprintf("e50/churn%.1f/eps%g/epoch%d", churn, eps, e),
					Protocol: dynstream.NewSemiStream(eps),
					Graph:    graphs[e],
					Coins:    coins.Derive("e50-run").DeriveIndex(int(churn*10)*1000 + int(1/eps)*100 + e),
				}
			}
			results, err := engine.RunBatch(context.Background(), eng, jobs)
			if err != nil {
				return nil, err
			}
			epochsOK := 0
			minRatio := 1.0
			var playerBits, feedbackBits int64
			for e, jr := range results {
				if jr.Err != nil {
					return nil, jr.Err
				}
				out := jr.Result.Output
				opt := len(graph.MaximumMatching(graphs[e]))
				ratio := 1.0
				if opt > 0 {
					ratio = float64(len(out)) / float64(opt)
				}
				if graph.IsMatching(graphs[e], out) && ratio+1e-9 >= 1-eps {
					epochsOK++
				}
				if ratio < minRatio {
					minRatio = ratio
				}
				playerBits = max(playerBits, jr.Result.Stats.TotalBits)
				feedbackBits = max(feedbackBits, jr.Result.Stats.FeedbackBits)
			}
			t.AddRow(fmt.Sprintf("%.1f", churn), fmt.Sprintf("%g", eps), p.Rounds(),
				fmt.Sprintf("%d/%d", epochsOK, epochs), fmt.Sprintf("%.3f", minRatio),
				playerBits, feedbackBits, digestOK)
		}
	}
	return []*Table{t}, nil
}
