package engine_test

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/agm"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// checkRoundBits asserts the RoundBits invariants on one run's stats:
// the per-round split is consistent with the aggregate player-only
// measures (RoundMaxBits, RoundTotalBits, TotalBits) and the feedback
// total, and player-only cost fields never absorb referee downlink bits.
func checkRoundBits(t *testing.T, label string, stats *engine.RunStats, wantAdaptive bool) bool {
	t.Helper()
	if len(stats.RoundBits) != stats.CompletedRounds {
		t.Errorf("%s: %d RoundBits entries, %d completed rounds", label, len(stats.RoundBits), stats.CompletedRounds)
		return false
	}
	var playerSum, feedbackSum int64
	for i, rb := range stats.RoundBits {
		playerSum += rb.PlayerBits
		feedbackSum += int64(rb.FeedbackBits)
		if rb.PlayerBits != stats.RoundTotalBits[i] {
			t.Errorf("%s: round %d PlayerBits %d != RoundTotalBits %d", label, i, rb.PlayerBits, stats.RoundTotalBits[i])
			return false
		}
		if rb.PlayerMaxBits != stats.RoundMaxBits[i] {
			t.Errorf("%s: round %d PlayerMaxBits %d != RoundMaxBits %d", label, i, rb.PlayerMaxBits, stats.RoundMaxBits[i])
			return false
		}
		if rb.FeedbackBits < 0 {
			t.Errorf("%s: round %d negative FeedbackBits %d", label, i, rb.FeedbackBits)
			return false
		}
	}
	if playerSum != stats.TotalBits {
		t.Errorf("%s: RoundBits player sum %d != TotalBits %d", label, playerSum, stats.TotalBits)
		return false
	}
	if feedbackSum != stats.FeedbackBits {
		t.Errorf("%s: RoundBits feedback sum %d != FeedbackBits %d", label, feedbackSum, stats.FeedbackBits)
		return false
	}
	if !wantAdaptive && stats.FeedbackBits != 0 {
		t.Errorf("%s: non-adaptive run reports %d feedback bits", label, stats.FeedbackBits)
		return false
	}
	if wantAdaptive && stats.FeedbackBits == 0 {
		t.Errorf("%s: adaptive run reports zero feedback bits", label)
		return false
	}
	return true
}

// TestQuickRoundBitsInvariants drives randomized (graph, coins, workers)
// configurations through an adaptive two-round protocol, a non-adaptive
// one-round protocol, and the MIS two-round protocol, checking the
// RoundBits accounting invariants on every run.
func TestQuickRoundBitsInvariants(t *testing.T) {
	type variant struct {
		name     string
		adaptive bool
		build    func() engine.Broadcaster
	}
	variants := []variant{
		{"mm-tworound", true, func() engine.Broadcaster { return matchproto.NewTwoRound() }},
		{"mis-tworound", true, func() engine.Broadcaster { return misproto.NewTwoRound() }},
		{"agm-forest", false, func() engine.Broadcaster {
			return protocol.OneRound[[]graph.Edge](agm.NewSpanningForest(agm.Config{}))
		}},
	}
	prop := func(seed uint64, nRaw uint8, pRaw uint16, workersRaw uint8) bool {
		n := 8 + int(nRaw)%48                     // 8..55 vertices
		p := 0.05 + float64(pRaw%1000)/1000.0*0.4 // density 0.05..0.45
		workers := 1 + int(workersRaw)%8          // 1..8 workers
		g := gen.Gnp(n, p, rng.NewSource(seed))
		coins := rng.NewPublicCoins(seed ^ 0x9e3779b97f4a7c15)
		for _, v := range variants {
			eng := &engine.Engine{Workers: workers, ShardSize: 3}
			_, stats, err := eng.Execute(context.Background(), v.build(), g, coins)
			if err != nil {
				t.Errorf("%s: %v", v.name, err)
				return false
			}
			if !checkRoundBits(t, v.name, stats, v.adaptive) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
