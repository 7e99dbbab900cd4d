package repro_test

// End-to-end integration: one flow from 3-AP-free sets all the way to
// Theorem 2's reduction, crossing every subsystem boundary the way the
// paper's argument does. Each stage validates the previous stage's
// output with independent verifiers.

import (
	"context"
	"testing"

	"repro/internal/agm"
	"repro/internal/ap3"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/harddist"
	"repro/internal/matchproto"
	"repro/internal/misproto"
	"repro/internal/misreduce"
	"repro/internal/rng"
	"repro/internal/rsgraph"
)

func TestEndToEndLowerBoundPipeline(t *testing.T) {
	const m = 60 // r = 16: budget-1 reports surface each special edge w.p. ≈ 0.23 < 1/2
	src := rng.NewSource(2020)
	coins := rng.NewPublicCoins(3405732)

	// Stage 1: combinatorial substrate.
	set := ap3.Best(m)
	if !ap3.IsAPFree(set) {
		t.Fatal("stage 1: AP-free set invalid")
	}
	rs, err := rsgraph.BuildFromAPFreeSet(m, set)
	if err != nil {
		t.Fatalf("stage 1: %v", err)
	}
	if err := rsgraph.Verify(rs); err != nil {
		t.Fatalf("stage 1: RS verification: %v", err)
	}

	// Stage 2: hard distribution.
	params := harddist.Params{RS: rs, K: 6, DropProb: 0.5}
	inst, err := harddist.Sample(params, src)
	if err != nil {
		t.Fatalf("stage 2: %v", err)
	}
	rep := harddist.CheckClaim31(inst, 10, src)
	if !rep.ExactHolds {
		t.Fatalf("stage 2: claim 3.1 exact bound violated: %+v", rep)
	}

	// Stage 3: the budgeted matching protocol fails, the trivial one
	// succeeds (Theorem 1's phenomenon).
	verify := matchproto.RecoveredSpecialGoal(inst)
	starvedWins := 0
	var starved core.Result[[]graph.Edge]
	for trial := 0; trial < 10; trial++ {
		starved, err = core.Run[[]graph.Edge](
			&matchproto.SpecialFilter{Instance: inst, EdgesPerVertex: 1},
			inst.G, coins.DeriveIndex(trial))
		if err != nil {
			t.Fatalf("stage 3: %v", err)
		}
		if verify(starved.Output) {
			starvedWins++
		}
	}
	if starvedWins > 2 {
		t.Errorf("stage 3: budget-1 protocol met the goal %d/10 times; instance not hard", starvedWins)
	}
	full, err := core.Run[[]graph.Edge](
		&matchproto.SpecialFilter{Instance: inst, EdgesPerVertex: 1 << 20}, inst.G, coins)
	if err != nil {
		t.Fatalf("stage 3: %v", err)
	}
	if !verify(full.Output) {
		t.Error("stage 3: unbounded protocol missed the goal")
	}
	if starved.MaxSketchBits >= full.MaxSketchBits {
		t.Error("stage 3: budget accounting inverted")
	}

	// Stage 4: the MIS reduction recovers the matching from a correct
	// MIS of H (Theorem 2's engine).
	res, err := misreduce.Run(inst, core.NewTrivialMIS(), coins)
	if err != nil {
		t.Fatalf("stage 4: %v", err)
	}
	if !res.MISValid || !res.GoalMetGood() {
		t.Errorf("stage 4: reduction failed: valid=%v goalGood=%v", res.MISValid, res.GoalMetGood())
	}

	// Stage 5: the contrast — polylog spanning forest on the very same
	// hard instance's graph.
	forest, err := core.Run[[]graph.Edge](agm.NewSpanningForest(agm.Config{}), inst.G, coins)
	if err != nil {
		t.Fatalf("stage 5: %v", err)
	}
	if !graph.IsSpanningForest(inst.G, forest.Output) {
		t.Error("stage 5: AGM forest invalid on the hard instance")
	}

	// Stage 6: the two-round escape hatch solves MM and MIS on the hard
	// instance with adaptive messages.
	mm, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, matchproto.NewTwoRound(), inst.G, coins)
	if err != nil {
		t.Fatalf("stage 6: %v", err)
	}
	if !graph.IsMaximalMatching(inst.G, mm.Output) {
		t.Error("stage 6: two-round MM not maximal on the hard instance")
	}
	mis, err := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, misproto.NewTwoRound(), inst.G, coins)
	if err != nil {
		t.Fatalf("stage 6: %v", err)
	}
	if !graph.IsMaximalIndependentSet(inst.G, mis.Output) {
		t.Error("stage 6: two-round MIS incorrect on the hard instance")
	}
}
