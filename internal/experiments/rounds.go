package experiments

// E40: the rounds-vs-communication tradeoff the engine's adaptive path
// exists to measure. One-round protocols for maximal matching are stuck
// at Ω(n/log n) bits per player (Theorem 1); with one referee feedback
// round, the two-round filtering protocols get the same guarantee from
// O(√n·polylog n)-bit messages plus a cheap referee downlink. This sweep
// runs both sides through the same engine batches and tabulates the
// split the per-round accounting (RunStats.RoundBits) now exposes:
// player uplink bits vs. referee feedback bits, per protocol, across n.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// E40RoundsVsCommunication sweeps rounds vs. total communication:
// one-round bounded-budget matching (AGM-era sampling, budgets √n and n)
// against the adaptive two-round MM and MIS protocols, across n.
func E40RoundsVsCommunication(scale Scale, seed uint64) ([]*Table, error) {
	src := rng.NewSource(seed)
	coins := rng.NewPublicCoins(seed ^ 0x40c0ffee)
	trials := 5
	ns := []int{100, 200, 400}
	if scale == Full {
		trials = 12
		ns = append(ns, 800, 1600)
	}
	t := &Table{
		ID:    "E40",
		Title: "Rounds vs. total communication: one-round budgets against adaptive two-round protocols",
		Columns: []string{
			"n", "protocol", "rounds", "success",
			"max msg bits", "player bits", "feedback bits",
		},
		Notes: []string{
			"player bits = per-run uplink total (max over trials); feedback bits = referee downlink, zero for every one-round protocol",
			"one extra adaptive round buys maximality at O(√n·polylog n) uplink per player — the Section 1.1 contrast, measured",
		},
	}
	eng := newEngine()
	for _, n := range ns {
		g := gen.Gnp(n, 0.3, src)
		sqrtBudget := int(math.Ceil(math.Sqrt(float64(n))))

		type edgeVariant struct {
			name    string
			rounds  int
			derive  string
			build   func() engine.Protocol[[]graph.Edge]
			verify  func([]graph.Edge) bool
			success *int
		}
		variants := []edgeVariant{
			{
				name: fmt.Sprintf("mm-1round-b%d", sqrtBudget), rounds: 1, derive: "e40-sqrt",
				build: func() engine.Protocol[[]graph.Edge] {
					return protocol.OneRound[[]graph.Edge](&matchproto.EdgeSample{EdgesPerVertex: sqrtBudget})
				},
				verify: func(out []graph.Edge) bool { return graph.IsMaximalMatching(g, out) },
			},
			{
				name: "mm-1round-full", rounds: 1, derive: "e40-full",
				build: func() engine.Protocol[[]graph.Edge] {
					return protocol.OneRound[[]graph.Edge](&matchproto.EdgeSample{EdgesPerVertex: n})
				},
				verify: func(out []graph.Edge) bool { return graph.IsMaximalMatching(g, out) },
			},
			{
				name: "mm-2round-adaptive", rounds: 2, derive: "e40-mm2",
				build: func() engine.Protocol[[]graph.Edge] {
					return matchproto.NewTwoRound()
				},
				verify: func(out []graph.Edge) bool { return graph.IsMaximalMatching(g, out) },
			},
		}
		for vi := range variants {
			v := &variants[vi]
			jobs := make([]engine.Job[[]graph.Edge], trials)
			for trial := range jobs {
				jobs[trial] = engine.Job[[]graph.Edge]{
					Label:    fmt.Sprintf("%s/n%d/t%d", v.name, n, trial),
					Protocol: v.build(),
					Graph:    g,
					Coins:    coins.Derive(v.derive).DeriveIndex(n*100 + trial),
				}
			}
			results, err := engine.RunBatch(context.Background(), eng, jobs)
			if err != nil {
				return nil, err
			}
			ok := 0
			var maxMsg int
			var playerBits, feedbackBits int64
			for _, jr := range results {
				if jr.Err != nil {
					return nil, jr.Err
				}
				if v.verify(jr.Result.Output) {
					ok++
				}
				maxMsg = max(maxMsg, jr.Result.Stats.MaxMessageBits)
				playerBits = max(playerBits, jr.Result.Stats.TotalBits)
				feedbackBits = max(feedbackBits, jr.Result.Stats.FeedbackBits)
			}
			t.AddRow(n, v.name, v.rounds, fmt.Sprintf("%d/%d", ok, trials),
				maxMsg, playerBits, feedbackBits)
		}

		// MIS rides the same sweep on its own job type: the adaptive
		// two-round protocol is the paper's second Section 1.1 witness.
		misJobs := make([]engine.Job[[]int], trials)
		for trial := range misJobs {
			misJobs[trial] = engine.Job[[]int]{
				Label:    fmt.Sprintf("mis-2round-adaptive/n%d/t%d", n, trial),
				Protocol: misproto.NewTwoRound(),
				Graph:    g,
				Coins:    coins.Derive("e40-mis2").DeriveIndex(n*100 + trial),
			}
		}
		misResults, err := engine.RunBatch(context.Background(), eng, misJobs)
		if err != nil {
			return nil, err
		}
		misOK := 0
		var misMaxMsg int
		var misPlayerBits, misFeedbackBits int64
		for _, jr := range misResults {
			if jr.Err != nil {
				return nil, jr.Err
			}
			if graph.IsMaximalIndependentSet(g, jr.Result.Output) {
				misOK++
			}
			misMaxMsg = max(misMaxMsg, jr.Result.Stats.MaxMessageBits)
			misPlayerBits = max(misPlayerBits, jr.Result.Stats.TotalBits)
			misFeedbackBits = max(misFeedbackBits, jr.Result.Stats.FeedbackBits)
		}
		t.AddRow(n, "mis-2round-adaptive", 2, fmt.Sprintf("%d/%d", misOK, trials),
			misMaxMsg, misPlayerBits, misFeedbackBits)
	}
	return []*Table{t}, nil
}
