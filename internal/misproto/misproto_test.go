package misproto

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestNeighborSampleFullBudgetIsCorrect(t *testing.T) {
	coins := rng.NewPublicCoins(1)
	src := rng.NewSource(2)
	p := &NeighborSample{NeighborsPerVertex: 1 << 20}
	for trial := 0; trial < 10; trial++ {
		g := gen.Gnp(40, 0.2, src)
		res, err := core.Run[[]int](p, g, coins.DeriveIndex(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Output) {
			t.Fatal("full-budget neighbor sample not a maximal IS")
		}
	}
}

func TestNeighborSampleLowBudgetErrs(t *testing.T) {
	// On a dense graph with 1-neighbor reports, the referee's view is so
	// sparse that its greedy MIS is almost surely dependent in G.
	g := gen.Complete(40)
	coins := rng.NewPublicCoins(3)
	p := &NeighborSample{NeighborsPerVertex: 1}
	failures := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		res, err := core.Run[[]int](p, g, coins.DeriveIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Output) {
			failures++
		}
	}
	if failures < trials/2 {
		t.Errorf("low-budget MIS failed only %d/%d times on K40", failures, trials)
	}
}

func TestNeighborSampleZeroBudget(t *testing.T) {
	g := gen.Path(6)
	res, err := core.Run[[]int](&NeighborSample{}, g, rng.NewPublicCoins(4))
	if err != nil {
		t.Fatal(err)
	}
	// Referee sees no edges: outputs all vertices (an "independent set"
	// of the empty reported graph) — wrong on any non-empty graph.
	if len(res.Output) != 6 {
		t.Errorf("zero-budget output size %d, want 6", len(res.Output))
	}
	if graph.IsIndependentSet(g, res.Output) {
		t.Error("all-vertices output reported independent on P6")
	}
}

func TestTwoRoundCorrectOnRandomGraphs(t *testing.T) {
	src := rng.NewSource(5)
	coins := rng.NewPublicCoins(6)
	p := NewTwoRound()
	successes := 0
	const trials = 15
	for i := 0; i < trials; i++ {
		g := gen.Gnp(80, 0.15, src)
		res, err := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, p, g, coins.DeriveIndex(i))
		if err != nil {
			t.Fatal(err)
		}
		if graph.IsMaximalIndependentSet(g, res.Output) {
			successes++
		}
	}
	if successes < trials*9/10 {
		t.Errorf("two-round MIS correct in %d/%d trials", successes, trials)
	}
}

func TestTwoRoundOnStructuredGraphs(t *testing.T) {
	coins := rng.NewPublicCoins(7)
	for name, g := range map[string]*graph.Graph{
		"path":     gen.Path(30),
		"cycle":    gen.Cycle(31),
		"star":     gen.Star(20),
		"complete": gen.Complete(25),
		"empty":    graph.NewBuilder(10).Build(),
	} {
		res, err := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, coins.Derive(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Output) {
			t.Errorf("%s: two-round MIS incorrect", name)
		}
	}
}

func TestTwoRoundMessageSizeEnvelope(t *testing.T) {
	// The adaptive protocol's guarantee is O(√n·log² n) bits per message.
	// (The constant-factor crossover against the n-bit trivial sketch
	// lies beyond unit-test scale; experiment E11 charts the scaling.)
	n := 400
	g := gen.Gnp(n, 0.3, rng.NewSource(8))
	res, err := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, rng.NewPublicCoins(9))
	if err != nil {
		t.Fatal(err)
	}
	logN := math.Log2(float64(n) + 1)
	envelope := int(6 * math.Sqrt(float64(n)) * logN * logN)
	if res.Stats.MaxMessageBits > envelope {
		t.Errorf("two-round MIS message %d bits exceeds %d = O(√n·log²n)", res.Stats.MaxMessageBits, envelope)
	}
	// On the complete graph, Δ = n-1 while messages stay within the
	// envelope: dominated vertices send short dominator lists and only
	// the few defectors ship capped residual lists.
	kn := 300
	k := gen.Complete(kn)
	kres, err := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), k, rng.NewPublicCoins(10))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalIndependentSet(k, kres.Output) {
		t.Error("two-round MIS wrong on K300")
	}
	logK := math.Log2(float64(kn) + 1)
	kEnvelope := int(6 * math.Sqrt(float64(kn)) * logK * logK)
	if got := kres.Stats.RoundBits[1].PlayerMaxBits; got > kEnvelope {
		t.Errorf("round-2 message on K300 is %d bits, exceeds envelope %d", got, kEnvelope)
	}
}

func TestTwoRoundDeterministicGivenCoins(t *testing.T) {
	g := gen.Gnp(40, 0.2, rng.NewSource(10))
	coins := rng.NewPublicCoins(11)
	a, err1 := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, coins)
	b, err2 := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, coins)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatal("same coins, different outputs")
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatal("same coins, different outputs")
		}
	}
}

func BenchmarkTwoRoundMISN200(b *testing.B) {
	g := gen.Gnp(200, 0.1, rng.NewSource(1))
	coins := rng.NewPublicCoins(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run[[]int](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, coins); err != nil {
			b.Fatal(err)
		}
	}
}
