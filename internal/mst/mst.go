// Package mst implements the AGM minimum-spanning-tree weight estimator
// [AGM, SODA'12] in the distributed sketching model — the first concrete
// result the paper's introduction credits to graph sketching ("minimum
// spanning trees and edge connectivity [1]").
//
// For integer edge weights in [1, W] on a connected graph, the
// Chazelle–Rubinfeld–Trevisan identity expresses the MST weight through
// component counts of thresholded subgraphs:
//
//	w(MST) = n − W + Σ_{i=1}^{W−1} cc(G_≤i),
//
// where G_≤i keeps the edges of weight ≤ i and cc counts its connected
// components. Every cc(G_≤i) is obtainable from one AGM spanning-forest
// sketch of G_≤i, so each vertex sends W−1 forest sketches and the
// referee sums the identity — no vertex ever sees more than its own
// incident weights.
package mst

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/agm"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// Weighted couples a graph with integer edge weights in [1, MaxW].
type Weighted struct {
	G    *graph.Graph
	W    map[graph.Edge]int
	MaxW int
}

// NewWeighted validates and wraps a weighted graph.
func NewWeighted(g *graph.Graph, w map[graph.Edge]int, maxW int) (*Weighted, error) {
	if maxW < 1 {
		return nil, fmt.Errorf("mst: MaxW must be >= 1, got %d", maxW)
	}
	if len(w) != g.M() {
		return nil, fmt.Errorf("mst: %d weights for %d edges", len(w), g.M())
	}
	for e, wt := range w {
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("mst: weight for non-edge %v", e)
		}
		if wt < 1 || wt > maxW {
			return nil, fmt.Errorf("mst: weight %d of %v outside [1, %d]", wt, e, maxW)
		}
	}
	return &Weighted{G: g, W: w, MaxW: maxW}, nil
}

// RandomWeights assigns uniform weights in [1, maxW].
func RandomWeights(g *graph.Graph, maxW int, src *rng.Source) *Weighted {
	w := make(map[graph.Edge]int, g.M())
	for _, e := range g.Edges() {
		w[e] = 1 + src.Intn(maxW)
	}
	return &Weighted{G: g, W: w, MaxW: maxW}
}

// ExactMSTWeight returns the minimum spanning forest weight by Kruskal's
// algorithm (the reference the sketched estimate is judged against).
func (wg *Weighted) ExactMSTWeight() int {
	edges := wg.G.Edges()
	sort.Slice(edges, func(i, j int) bool { return wg.W[edges[i]] < wg.W[edges[j]] })
	parent := make([]int, wg.G.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	total := 0
	for _, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[rv] = ru
			total += wg.W[e]
		}
	}
	return total
}

// thresholded returns G_≤i.
func (wg *Weighted) thresholded(i int) *graph.Graph {
	b := graph.NewBuilder(wg.G.N())
	for _, e := range wg.G.Edges() {
		if wg.W[e] <= i {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// Result reports one estimator run.
type Result struct {
	// Estimate is the sketched MSF weight via the CRT identity
	// (generalized to disconnected graphs: spanning forest weight).
	Estimate int
	// Exact is the Kruskal reference.
	Exact int
	// MaxSketchBits is the worst-case per-vertex total across all
	// thresholds.
	MaxSketchBits int
}

// Exactly reports whether the estimate matched the reference.
func (r Result) Exactly() bool { return r.Estimate == r.Exact }

// Protocol is the one-round sketching estimator behind Run, expressed
// on the uniform Sketch/Decode contract so it runs on the execution
// engine and the wire like every other protocol. Vertex v's message is
// the concatenation, over thresholds i = 1..MaxW, of one AGM forest
// sketch of its G_≤i incidence (no padding between parts: the message
// length is exactly the sum of the per-threshold sketch lengths, which
// is what the model charges). The referee decodes threshold by
// threshold — each forest sketch has a deterministic length, so the
// concatenated messages parse unambiguously — and sums the generalized
// identity.
type Protocol struct {
	wg      *Weighted
	cfg     agm.Config
	forests []*agm.ForestProtocol
}

var _ core.Protocol[int] = (*Protocol)(nil)

// NewProtocol returns the estimator for one weighted graph. The weights
// parameterize the protocol (each vertex thresholds its own incident
// weights), so instances are bound to wg.
func NewProtocol(wg *Weighted, cfg agm.Config) *Protocol {
	forests := make([]*agm.ForestProtocol, wg.MaxW)
	for i := range forests {
		forests[i] = agm.NewSpanningForest(cfg)
	}
	return &Protocol{wg: wg, cfg: cfg, forests: forests}
}

// Name implements core.Protocol.
func (p *Protocol) Name() string { return "mst-weight" }

// Sketch implements core.Protocol: one forest sketch per threshold of
// the vertex's thresholded incidence, concatenated bit-exactly. The
// message is grown once to its exact length and every forest sketch is
// appended straight into it.
func (p *Protocol) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	thresholds := make([]*rng.PublicCoins, p.wg.MaxW)
	bits := 0
	for i := range thresholds {
		thresholds[i] = coins.Derive("mst-threshold").DeriveIndex(i + 1)
		bits += p.forests[i].SketchBits(view.N, thresholds[i])
	}
	w := &bitio.Writer{}
	w.Grow(bits)
	for i, c := range thresholds {
		var nbrs []int
		for _, u := range view.Neighbors {
			if p.wg.W[graph.NewEdge(view.ID, u)] <= i+1 {
				nbrs = append(nbrs, u)
			}
		}
		p.forests[i].AppendSketch(w, core.VertexView{N: view.N, ID: view.ID, Neighbors: nbrs}, c)
	}
	return w, nil
}

// Decode implements core.Protocol: recover cc(G_≤i) for every threshold
// from the concatenated forest sketches and sum the identity
// w(MSF) = n + Σ_{i<W} cc(G_≤i) − W·cc(G), valid for disconnected
// graphs too. A forest-decode failure overcounts that threshold's
// components, inflating the estimate when i < W and deflating it at
// i = W; the experiment reports |estimate − exact|.
func (p *Protocol) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) (int, error) {
	ccTotal := 0
	var ccFull int
	for i := 1; i <= p.wg.MaxW; i++ {
		c := coins.Derive("mst-threshold").DeriveIndex(i)
		forest, err := p.forests[i-1].Decode(n, sketches, c)
		if err != nil {
			return 0, fmt.Errorf("mst: threshold %d decode: %w", i, err)
		}
		cc := n - len(forest)
		if i < p.wg.MaxW {
			ccTotal += cc
		} else {
			ccFull = cc
		}
	}
	return n + ccTotal - p.wg.MaxW*ccFull, nil
}

// Verify implements protocol.Sketcher: the estimate is audited against
// the Kruskal reference (the sketch is exact whenever every forest
// decode succeeds, which holds w.h.p. at the default parameters).
func (p *Protocol) Verify(_ *graph.Graph, out int) protocol.Outcome {
	return protocol.Outcome{Kind: "count", Size: out, Checked: true, Valid: out == p.wg.ExactMSTWeight()}
}

// Run executes the sketching estimator through the execution engine:
// every vertex emits its concatenated per-threshold forest sketches, the
// referee decodes component counts and sums the identity.
func Run(wg *Weighted, cfg agm.Config, coins *rng.PublicCoins) (Result, error) {
	var res Result
	res.Exact = wg.ExactMSTWeight()
	r, err := engine.Run(context.Background(), &engine.Engine{Workers: 1}, protocol.OneRound[int](NewProtocol(wg, cfg)), wg.G, coins)
	if err != nil {
		return res, err
	}
	res.Estimate = r.Output
	res.MaxSketchBits = r.Stats.MaxMessageBits
	return res, nil
}
