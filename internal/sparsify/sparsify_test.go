package sparsify

import (
	"math"
	"testing"

	"repro/internal/agm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func runSparsifier(t *testing.T, g *graph.Graph, cfg Config, seed uint64) *Sparsifier {
	t.Helper()
	res, err := core.Run[*Sparsifier](New(cfg), g, rng.NewPublicCoins(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

func TestSparsifierEdgesAreRealEdges(t *testing.T) {
	g := gen.Gnp(36, 0.3, rng.NewSource(1))
	sp := runSparsifier(t, g, Config{}, 2)
	for e := range sp.Weight {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("sparsifier contains phantom edge %v", e)
		}
	}
	if sp.Edges() == 0 {
		t.Fatal("empty sparsifier for a connected-ish graph")
	}
}

func TestSparsifierSmallerThanDenseGraph(t *testing.T) {
	g := gen.Gnp(48, 0.6, rng.NewSource(3))
	cfg := Config{K: 3, Levels: 5}
	sp := runSparsifier(t, g, cfg, 4)
	if sp.Edges() >= g.M() {
		t.Errorf("sparsifier has %d edges, graph has %d — no sparsification", sp.Edges(), g.M())
	}
}

func TestSparsifierCutAccuracy(t *testing.T) {
	src := rng.NewSource(5)
	g := gen.Gnp(40, 0.4, src)
	sp := runSparsifier(t, g, Config{}, 6)
	// Random cuts: relative error should be moderate (this is a measured-
	// quality construction; E17 reports the full distribution).
	bad := 0
	const cuts = 40
	for c := 0; c < cuts; c++ {
		side := make([]bool, g.N())
		for v := range side {
			side[v] = src.Bool()
		}
		truth := TrueCut(g, side)
		if truth == 0 {
			continue
		}
		est := sp.CutValue(side)
		rel := math.Abs(est-truth) / truth
		if rel > 0.75 {
			bad++
		}
	}
	if bad > cuts/4 {
		t.Errorf("%d/%d random cuts off by more than 75%%", bad, cuts)
	}
}

func TestSparsifierPreservesSmallCutsExactly(t *testing.T) {
	// Two dense blobs joined by 2 edges: the bottleneck cut must be
	// represented (skeletons keep all edges of small cuts at level 0).
	b := graph.NewBuilder(16)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(i, j)
			b.AddEdge(8+i, 8+j)
		}
	}
	b.AddEdge(0, 8)
	b.AddEdge(1, 9)
	g := b.Build()
	sp := runSparsifier(t, g, Config{K: 3}, 7)
	side := make([]bool, 16)
	for v := 8; v < 16; v++ {
		side[v] = true
	}
	if got := sp.CutValue(side); got < 2 {
		t.Errorf("bottleneck cut weighted %v, want >= 2", got)
	}
	// The level-0 skeleton keeps both bridge-ish edges themselves.
	if _, ok := sp.Weight[graph.NewEdge(0, 8)]; !ok {
		t.Error("cut edge (0,8) missing from sparsifier")
	}
	if _, ok := sp.Weight[graph.NewEdge(1, 9)]; !ok {
		t.Error("cut edge (1,9) missing from sparsifier")
	}
}

func TestSparsifierApproximatesGlobalMinCut(t *testing.T) {
	// The cited application: approximate min cut from the sparsifier.
	// Two blobs with a planted 3-edge cut.
	b := graph.NewBuilder(20)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			b.AddEdge(i, j)
			b.AddEdge(10+i, 10+j)
		}
	}
	b.AddEdge(0, 10)
	b.AddEdge(1, 11)
	b.AddEdge(2, 12)
	g := b.Build()
	truth, _ := graph.GlobalMinCut(g)
	if truth != 3 {
		t.Fatalf("planted min cut = %v, want 3", truth)
	}
	sp := runSparsifier(t, g, Config{K: 4}, 11)
	est, side := graph.WeightedMinCut(g.N(), sp.Weight)
	if est < truth*0.5 || est > truth*2 {
		t.Errorf("sparsifier min cut %v vs true %v — outside 2x", est, truth)
	}
	// The optimal side should separate the blobs.
	if len(side) != 10 {
		t.Errorf("min-cut side size %d, want 10 (one blob)", len(side))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(64)
	if c.Levels != 7 || c.K != 4 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestSkeletonBitsMatchesActual(t *testing.T) {
	// The decoder depends on the deterministic sketch length; pin it.
	n := 20
	cfg := Config{K: 2}.withDefaults(n)
	p := agm.NewSkeleton(cfg.K, cfg.Forest)
	g := gen.Gnp(n, 0.3, rng.NewSource(8))
	views := core.Views(g)
	view := views[0]
	coins := rng.NewPublicCoins(9)
	w, err := p.Sketch(view, coins)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Len(), p.SketchBits(n, coins); got != want {
		t.Fatalf("actual skeleton sketch %d bits, predicted %d", got, want)
	}
}

func TestEdgeLevelConsistentAndGeometric(t *testing.T) {
	coins := rng.NewPublicCoins(10)
	n := 100
	atLeast1 := 0
	total := 0
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			a := edgeLevel(n, u, v, 8, coins)
			b := edgeLevel(n, v, u, 8, coins)
			if a != b {
				t.Fatal("edge level differs by endpoint order")
			}
			total++
			if a >= 1 {
				atLeast1++
			}
		}
	}
	// Pr[level >= 1] ≈ 1/2.
	frac := float64(atLeast1) / float64(total)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("Pr[level >= 1] ≈ %v, want ~0.5", frac)
	}
}
