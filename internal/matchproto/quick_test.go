package matchproto

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Property: EdgeSample's output is a matching of G for every graph,
// budget and coin seed — the protocol may be non-maximal but never
// invalid.
func TestEdgeSampleAlwaysMatchingQuick(t *testing.T) {
	f := func(seed uint64, nSeed, budgetSeed uint8, p8 uint8) bool {
		src := rng.NewSource(seed)
		n := 2 + int(nSeed%40)
		p := float64(p8%100) / 100
		g := gen.Gnp(n, p, src)
		budget := int(budgetSeed % 20)
		proto := &EdgeSample{EdgesPerVertex: budget}
		res, err := core.Run[[]graph.Edge](proto, g, rng.NewPublicCoins(seed^0xabc))
		if err != nil {
			return false
		}
		return graph.IsMatching(g, res.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Prefix output is a matching and its sketch is exactly
// min(Bits, n) bits per player.
func TestPrefixCostExactQuick(t *testing.T) {
	f := func(seed uint64, nSeed, bitsSeed uint8) bool {
		src := rng.NewSource(seed)
		n := 2 + int(nSeed%30)
		g := gen.Gnp(n, 0.3, src)
		bits := int(bitsSeed % 40)
		proto := &Prefix{Bits: bits}
		res, err := core.Run[[]graph.Edge](proto, g, rng.NewPublicCoins(seed))
		if err != nil {
			return false
		}
		want := bits
		if want > n {
			want = n
		}
		return graph.IsMatching(g, res.Output) && res.MaxSketchBits == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the two-round protocol's output is a matching of G (it may
// rarely miss maximality under caps, never validity).
func TestTwoRoundAlwaysMatchingQuick(t *testing.T) {
	f := func(seed uint64, nSeed uint8) bool {
		src := rng.NewSource(seed)
		n := 4 + int(nSeed%40)
		g := gen.Gnp(n, 0.3, src)
		res, err := engine.Run[[]graph.Edge](context.Background(), &engine.Engine{Workers: 1}, NewTwoRound(), g, rng.NewPublicCoins(seed^0x9))
		if err != nil {
			return false
		}
		return graph.IsMatching(g, res.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: greedy matchings are 1/2-approximate — combined with the
// blossom optimum this pins both reference implementations against each
// other.
func TestGreedyHalfApproxQuick(t *testing.T) {
	f := func(seed uint64, nSeed uint8) bool {
		src := rng.NewSource(seed)
		n := 4 + int(nSeed%25)
		g := gen.Gnp(n, 0.3, src)
		greedy := graph.GreedyMaximalMatching(g, src.Perm(n))
		opt := graph.MaximumMatchingSize(g)
		return 2*len(greedy) >= opt && len(greedy) <= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
