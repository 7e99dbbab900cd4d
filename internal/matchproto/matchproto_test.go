package matchproto

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harddist"
	"repro/internal/rng"
	"repro/internal/rsgraph"
)

func TestEdgeSampleOutputIsAlwaysAMatching(t *testing.T) {
	coins := rng.NewPublicCoins(1)
	src := rng.NewSource(2)
	for _, budget := range []int{0, 1, 3, 100} {
		p := &EdgeSample{EdgesPerVertex: budget}
		for trial := 0; trial < 10; trial++ {
			g := gen.Gnp(30, 0.2, src)
			res, err := core.Run[[]graph.Edge](p, g, coins.DeriveIndex(trial*10+budget))
			if err != nil {
				t.Fatal(err)
			}
			if !graph.IsMatching(g, res.Output) {
				t.Fatalf("budget %d: output not a matching of G", budget)
			}
		}
	}
}

func TestEdgeSampleFullBudgetIsMaximal(t *testing.T) {
	coins := rng.NewPublicCoins(3)
	src := rng.NewSource(4)
	p := &EdgeSample{EdgesPerVertex: 1 << 20}
	for trial := 0; trial < 10; trial++ {
		g := gen.Gnp(30, 0.3, src)
		res, err := core.Run[[]graph.Edge](p, g, coins.DeriveIndex(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMaximalMatching(g, res.Output) {
			t.Fatal("full-budget edge sample not maximal")
		}
	}
}

func TestEdgeSampleZeroBudgetEmptyOutput(t *testing.T) {
	g := gen.Complete(10)
	res, err := core.Run[[]graph.Edge](&EdgeSample{}, g, rng.NewPublicCoins(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Errorf("zero budget produced %d edges", len(res.Output))
	}
	if graph.IsMaximalMatching(g, res.Output) {
		t.Error("empty matching reported maximal on K10")
	}
}

func TestEdgeSampleSketchBitsScaleWithBudget(t *testing.T) {
	g := gen.Complete(64)
	coins := rng.NewPublicCoins(6)
	small, err := core.Run[[]graph.Edge](&EdgeSample{EdgesPerVertex: 2}, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	big, err := core.Run[[]graph.Edge](&EdgeSample{EdgesPerVertex: 20}, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if big.MaxSketchBits <= small.MaxSketchBits {
		t.Errorf("bits did not grow with budget: %d vs %d", small.MaxSketchBits, big.MaxSketchBits)
	}
	// 2 neighbors of 6 bits each plus a count: well under 32 bits.
	if small.MaxSketchBits > 32 {
		t.Errorf("budget-2 sketch unexpectedly large: %d bits", small.MaxSketchBits)
	}
}

func TestPrefixDeterministicAndPartial(t *testing.T) {
	g := gen.Path(10)
	coins := rng.NewPublicCoins(7)
	full, err := core.Run[[]graph.Edge](&Prefix{Bits: 10}, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalMatching(g, full.Output) {
		t.Error("full prefix not maximal")
	}
	// Prefix of 0 bits sees nothing.
	empty, err := core.Run[[]graph.Edge](&Prefix{Bits: 0}, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Output) != 0 {
		t.Error("zero-bit prefix produced edges")
	}
	// Intermediate prefix: a matching of G, maybe not maximal.
	half, err := core.Run[[]graph.Edge](&Prefix{Bits: 5}, g, coins)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, half.Output) {
		t.Error("half prefix output not a matching")
	}
}

func TestPrefixSeesEdgeIfEitherEndpointCovered(t *testing.T) {
	// Edge {1, 9}: with Bits=2, vertex 9's row covers column 1, so the
	// referee learns the edge even though vertex 1's row misses column 9.
	g := graph.FromEdges(10, []graph.Edge{{U: 1, V: 9}})
	res, err := core.Run[[]graph.Edge](&Prefix{Bits: 2}, g, rng.NewPublicCoins(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != (graph.Edge{U: 1, V: 9}) {
		t.Errorf("output = %v, want the single edge", res.Output)
	}
}

func sampleInstance(t testing.TB, m, k int, seed uint64) *harddist.Instance {
	t.Helper()
	rs, err := rsgraph.BuildBehrend(m)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := harddist.Sample(harddist.Params{RS: rs, K: k, DropProb: 0.5}, rng.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSpecialFilterHighBudgetSucceeds(t *testing.T) {
	inst := sampleInstance(t, 12, 12, 9)
	p := &SpecialFilter{Instance: inst, EdgesPerVertex: 1 << 20}
	res, err := core.Run[[]graph.Edge](p, inst.G, rng.NewPublicCoins(10))
	if err != nil {
		t.Fatal(err)
	}
	verify := RecoveredSpecialGoal(inst)
	if !verify(res.Output) {
		t.Errorf("full-budget special filter failed: %d edges recovered, threshold %.1f",
			len(res.Output), inst.Claim31Threshold())
	}
	if len(res.Output) != inst.SurvivedSpecialCount() {
		t.Errorf("recovered %d special edges, survived %d", len(res.Output), inst.SurvivedSpecialCount())
	}
}

func TestSpecialFilterLowBudgetFails(t *testing.T) {
	// The budget must be well below r for the failure regime: at m=60 the
	// AP-free set has 16 elements, so unique vertices have ~8 surviving
	// incident edges and a 1-edge report surfaces each special edge with
	// probability ≈ 1-(1-1/8)^2 ≈ 0.23 < 1/2, below the k·r/4 threshold.
	inst := sampleInstance(t, 60, 8, 11)
	if inst.Params.RS.R() < 12 {
		t.Fatalf("test premise broken: r = %d too small", inst.Params.RS.R())
	}
	p := &SpecialFilter{Instance: inst, EdgesPerVertex: 1}
	res, err := core.Run[[]graph.Edge](p, inst.G, rng.NewPublicCoins(12))
	if err != nil {
		t.Fatal(err)
	}
	if RecoveredSpecialGoal(inst)(res.Output) {
		t.Error("1-edge budget met the k·r/4 goal; the hard distribution is not hard")
	}
}

func TestSpecialFilterOutputsOnlyTrueSpecialEdges(t *testing.T) {
	inst := sampleInstance(t, 10, 6, 13)
	p := &SpecialFilter{Instance: inst, EdgesPerVertex: 5}
	res, err := core.Run[[]graph.Edge](p, inst.G, rng.NewPublicCoins(14))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsVertexDisjoint(res.Output) {
		t.Error("special filter output not vertex disjoint")
	}
	for _, e := range res.Output {
		if !inst.G.HasEdge(e.U, e.V) {
			t.Errorf("output contains non-edge %v", e)
		}
	}
}

func TestRecoveredSpecialGoalRejectsPhantoms(t *testing.T) {
	inst := sampleInstance(t, 10, 6, 15)
	verify := RecoveredSpecialGoal(inst)
	// A non-surviving special pair is a phantom.
	var phantom *graph.Edge
	for i := 0; i < inst.Params.K && phantom == nil; i++ {
		survived := make(map[graph.Edge]bool)
		for _, e := range inst.SpecialMatchingSurvived(i) {
			survived[e] = true
		}
		for _, e := range inst.SpecialMatchingFull(i) {
			if !survived[e] {
				ec := e
				phantom = &ec
				break
			}
		}
	}
	if phantom == nil {
		t.Skip("all special edges survived; reseed")
	}
	if verify([]graph.Edge{*phantom}) {
		t.Error("phantom edge accepted")
	}
}

func TestTwoRoundMaximalOnRandomGraphs(t *testing.T) {
	src := rng.NewSource(16)
	coins := rng.NewPublicCoins(17)
	p := NewTwoRound()
	successes := 0
	const trials = 15
	for i := 0; i < trials; i++ {
		g := gen.Gnp(80, 0.15, src)
		res, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, p, g, coins.DeriveIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		if graph.IsMaximalMatching(g, res.Output) {
			successes++
		}
	}
	if successes < trials*9/10 {
		t.Errorf("two-round MM maximal in %d/%d trials", successes, trials)
	}
}

func TestTwoRoundMessageSizeSublinear(t *testing.T) {
	g := gen.Gnp(400, 0.3, rng.NewSource(18))
	res, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, rng.NewPublicCoins(19))
	if err != nil {
		t.Fatal(err)
	}
	// Max degree ~120, full neighborhood would be ~120·9 > 1000 bits;
	// two-round must stay well below the n-bit trivial sketch.
	if res.Stats.MaxMessageBits >= g.N() {
		t.Errorf("two-round message %d bits >= n = %d", res.Stats.MaxMessageBits, g.N())
	}
	if len(res.Stats.RoundBits) != 2 {
		t.Fatalf("expected 2 rounds, got %d", len(res.Stats.RoundBits))
	}
}

func TestTwoRoundAlwaysOutputsMatching(t *testing.T) {
	src := rng.NewSource(20)
	coins := rng.NewPublicCoins(21)
	for i := 0; i < 10; i++ {
		g := gen.Gnp(50, 0.4, src)
		res, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, coins.DeriveIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMatching(g, res.Output) {
			t.Fatal("two-round output not a matching")
		}
	}
}

func BenchmarkEdgeSampleN200(b *testing.B) {
	g := gen.Gnp(200, 0.1, rng.NewSource(1))
	p := &EdgeSample{EdgesPerVertex: 10}
	coins := rng.NewPublicCoins(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run[[]graph.Edge](p, g, coins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoRoundN200(b *testing.B) {
	g := gen.Gnp(200, 0.1, rng.NewSource(3))
	coins := rng.NewPublicCoins(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, coins); err != nil {
			b.Fatal(err)
		}
	}
}
