package dynstream

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// runSemiStream executes the protocol on g through the engine.
func runSemiStream(t *testing.T, p *SemiStream, g *graph.Graph, coins *rng.PublicCoins, workers int) ([]graph.Edge, *engine.Transcript) {
	t.Helper()
	eng := &engine.Engine{Workers: workers, ShardSize: 3}
	res, tr, err := engine.RunWithTranscript[[]graph.Edge](context.Background(), eng, p, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	return res.Output, tr
}

// TestSemiStreamApproximation is the protocol's guarantee check: across
// graph families, slacks and seeds, the output is a matching of g with
// |M| ≥ (1−ε)·|M*| against the blossom ground truth.
func TestSemiStreamApproximation(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-sparse", gen.Gnp(60, 0.05, rng.NewSource(1))},
		{"gnp-dense", gen.Gnp(60, 0.3, rng.NewSource(2))},
		{"path", gen.Path(50)},
		{"star", gen.Star(40)},
		{"grid", gen.Grid(6, 8)},
		{"empty", gen.Gnp(30, 0, rng.NewSource(3))},
	}
	for _, eps := range []float64{0.5, 0.25, 0.125} {
		p := NewSemiStream(eps)
		for _, tc := range graphs {
			for seed := uint64(0); seed < 3; seed++ {
				out, _ := runSemiStream(t, p, tc.g, rng.NewPublicCoins(100+seed), 4)
				if !IsApproxMaximumMatching(tc.g, out, eps) {
					opt := len(graph.MaximumMatching(tc.g))
					t.Errorf("eps=%g %s seed=%d: |M|=%d below (1-eps)·|M*|=(1-%g)·%d",
						eps, tc.name, seed, len(out), eps, opt)
				}
			}
		}
	}
}

// TestSemiStreamPassCount pins the ε→passes derivation.
func TestSemiStreamPassCount(t *testing.T) {
	cases := []struct {
		eps    float64
		rounds int
	}{
		{0.5, 6},    // k=2
		{0.25, 10},  // k=4
		{0.125, 18}, // k=8
		{0, 10},     // DefaultEps
	}
	for _, tc := range cases {
		p := &SemiStream{Eps: tc.eps}
		if got := p.Rounds(); got != tc.rounds {
			t.Errorf("eps=%g: %d rounds, want %d", tc.eps, got, tc.rounds)
		}
	}
}

// TestSemiStreamDeterministicAcrossWorkers pins the determinism
// contract over the multi-pass feedback path: transcripts (players and
// referee lane) are byte-identical at Workers ∈ {1, 2, 8}.
func TestSemiStreamDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Gnp(50, 0.2, rng.NewSource(5))
	p := NewSemiStream(0.25)
	coins := rng.NewPublicCoins(7)
	_, ref := runSemiStream(t, p, g, coins, 1)
	for _, workers := range []int{2, 8} {
		_, tr := runSemiStream(t, p, g, coins, workers)
		if tr.Rounds() != ref.Rounds() {
			t.Fatalf("workers=%d: %d rounds vs %d", workers, tr.Rounds(), ref.Rounds())
		}
		for round := 0; round < ref.Rounds(); round++ {
			for v := 0; v < g.N(); v++ {
				if ref.BitLen(round, v) != tr.BitLen(round, v) || !bytes.Equal(ref.AppendMessage(nil, round, v), tr.AppendMessage(nil, round, v)) {
					t.Fatalf("workers=%d: round %d vertex %d message diverges", workers, round, v)
				}
			}
			if ref.FeedbackBitLen(round) != tr.FeedbackBitLen(round) || !bytes.Equal(ref.AppendFeedback(nil, round), tr.AppendFeedback(nil, round)) {
				t.Fatalf("workers=%d: round %d feedback diverges", workers, round)
			}
		}
	}
}

// TestSemiStreamFeedbackStructure pins the referee's cadence: feedback
// after every pass except the last, silence after the last.
func TestSemiStreamFeedbackStructure(t *testing.T) {
	g := gen.Gnp(40, 0.2, rng.NewSource(9))
	p := NewSemiStream(0.5)
	_, tr := runSemiStream(t, p, g, rng.NewPublicCoins(11), 2)
	for round := 0; round < tr.Rounds()-1; round++ {
		if tr.FeedbackBitLen(round) == 0 {
			t.Errorf("round %d: referee silent, expected feedback", round)
		}
	}
	if tr.FeedbackBitLen(tr.Rounds()-1) != 0 {
		t.Error("referee spoke after the final pass")
	}
}

// TestSemiStreamResilientVerdicts pins DecodeResilient's three-way
// verdict on a clean transcript and on a transcript with a forged
// feedback lane.
func TestSemiStreamResilientVerdicts(t *testing.T) {
	g := gen.Gnp(40, 0.2, rng.NewSource(13))
	p := NewSemiStream(0.5)
	coins := rng.NewPublicCoins(15)
	_, tr := runSemiStream(t, p, g, coins, 2)
	out, verdict, err := p.DecodeResilient(g.N(), tr, coins)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.String() != "ok" {
		t.Fatalf("clean transcript decoded %s, want ok", verdict)
	}
	if !IsApproxMaximumMatching(g, out, p.EpsOf()) {
		t.Fatal("clean resilient decode lost the guarantee")
	}
	// A truncated cap budget forces reports to the cap: still a valid
	// matching, but the verdict must demote to degraded.
	capped := &SemiStream{Eps: 0.5, Cap: 2}
	_, trCap := runSemiStream(t, capped, g, coins, 2)
	_, verdict, err = capped.DecodeResilient(g.N(), trCap, coins)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.String() != "degraded" {
		t.Fatalf("cap-saturated transcript decoded %s, want degraded", verdict)
	}
}

// TestSemiStreamOnDynamicEpochs runs the registered protocol on the
// materialized graph of every epoch of a churn stream — the dynamic
// workload loop E50 sweeps at scale.
func TestSemiStreamOnDynamicEpochs(t *testing.T) {
	s, err := Generate(churnSpec(53))
	if err != nil {
		t.Fatal(err)
	}
	p := NewSemiStream(0.25)
	for e := 0; e < s.Epochs(); e++ {
		g := s.GraphAt(e)
		out, _ := runSemiStream(t, p, g, rng.NewPublicCoins(uint64(60+e)), 4)
		if !IsApproxMaximumMatching(g, out, p.EpsOf()) {
			t.Errorf("epoch %d: approximation guarantee lost (|M|=%d, |M*|=%d)",
				e, len(out), len(graph.MaximumMatching(g)))
		}
	}
}

// TestSemiStreamName pins the registry-facing naming.
func TestSemiStreamName(t *testing.T) {
	if got := NewSemiStream(0.25).Name(); got != fmt.Sprintf("semistream-matching(eps=%g)", 0.25) {
		t.Fatalf("unexpected name %q", got)
	}
}
