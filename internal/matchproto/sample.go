// Package matchproto collects maximal-matching protocols for the
// distributed sketching model: the candidates whose failure the paper's
// Theorem 1 predicts at sub-√n sketch sizes, the trivial Θ(n)-bit
// protocol that succeeds, and the two-round adaptive O(√n·polylog n)
// protocol the paper cites as sitting just above the one-round lower
// bound.
package matchproto

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sampleSketch writes up to `budget` uniformly-sampled distinct neighbors
// of the view, preceded by their count. Sampling coins are private to the
// conceptual player but derived deterministically from the public coins
// and the vertex ID so runs are reproducible.
func sampleSketch(view core.VertexView, budget int, coins *rng.PublicCoins) *bitio.Writer {
	idWidth := bitio.UintWidth(view.N)
	k := budget
	if k > view.Degree() {
		k = view.Degree()
	}
	if k < 0 {
		k = 0
	}
	w := &bitio.Writer{}
	w.Grow(bitio.UvarintWidth(uint64(k)) + k*idWidth)
	w.WriteUvarint(uint64(k))
	src := coins.Derive("edge-sample").DeriveIndex(view.ID).Source()
	perm := src.Perm(view.Degree())
	for i := 0; i < k; i++ {
		w.WriteUint(uint64(view.Neighbors[perm[i]]), idWidth)
	}
	return w
}

// readSampledEdges reconstructs the reported edge set: edge {u,v} is known
// to the referee if either endpoint reported it.
func readSampledEdges(n int, sketches []*bitio.Reader) ([]graph.Edge, error) {
	idWidth := bitio.UintWidth(n)
	seen := make(map[graph.Edge]bool)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		k, err := sketches[v].ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("matchproto: sketch %d: %w", v, err)
		}
		for i := uint64(0); i < k; i++ {
			u, err := sketches[v].ReadUint(idWidth)
			if err != nil {
				return nil, fmt.Errorf("matchproto: sketch %d: %w", v, err)
			}
			if int(u) == v || int(u) >= n {
				return nil, fmt.Errorf("matchproto: sketch %d reports invalid neighbor %d", v, u)
			}
			e := graph.NewEdge(v, int(u))
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	return edges, nil
}

// readSampledEdgesTolerant is readSampledEdges with per-vertex damage
// tolerance for faulted transcripts: a sketch that is empty, truncated,
// or reports invalid neighbors contributes what it can and is counted in
// badVertices instead of failing the whole decode. On an undamaged
// transcript it returns exactly readSampledEdges' result with
// badVertices == 0 — players always write at least the count bit and
// never an invalid neighbor — so clean runs are unaffected.
func readSampledEdgesTolerant(n int, sketches []*bitio.Reader) (edges []graph.Edge, badVertices int) {
	idWidth := bitio.UintWidth(n)
	seen := make(map[graph.Edge]bool)
	for v := 0; v < n; v++ {
		r := sketches[v]
		bad := false
		if r == nil || r.Remaining() == 0 {
			badVertices++
			continue
		}
		k, err := r.ReadUvarint()
		if err != nil {
			badVertices++
			continue
		}
		for i := uint64(0); i < k; i++ {
			u, err := r.ReadUint(idWidth)
			if err != nil {
				bad = true
				break
			}
			if int(u) == v || int(u) >= n {
				bad = true
				continue
			}
			e := graph.NewEdge(v, int(u))
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		if r.Remaining() != 0 {
			bad = true // longer than its own count declared
		}
		if bad {
			badVertices++
		}
	}
	return edges, badVertices
}

// EdgeSample is the bounded-budget candidate protocol: every vertex
// reports EdgesPerVertex random incident edges and the referee outputs a
// greedy maximal matching of the reported subgraph. Its output is always
// a matching of G, but it stops being maximal once the budget is too
// small to surface all of G's structure — exactly the failure mode
// Theorem 1 forces on D_MM for any budget below ~r bits.
type EdgeSample struct {
	// EdgesPerVertex is the per-player report budget in edges; the bit
	// cost is EdgesPerVertex·ceil(log2 n) + O(log) for the count.
	EdgesPerVertex int
}

var _ core.Protocol[[]graph.Edge] = (*EdgeSample)(nil)

// Name implements core.Protocol.
func (p *EdgeSample) Name() string {
	return fmt.Sprintf("edge-sample-%d", p.EdgesPerVertex)
}

// Sketch implements core.Protocol.
func (p *EdgeSample) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return sampleSketch(view, p.EdgesPerVertex, coins), nil
}

// Decode implements core.Protocol.
func (p *EdgeSample) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, error) {
	edges, err := readSampledEdges(n, sketches)
	if err != nil {
		return nil, err
	}
	order := coins.Derive("referee-order").Source().Perm(len(edges))
	shuffled := make([]graph.Edge, len(edges))
	for i, j := range order {
		shuffled[i] = edges[j]
	}
	return graph.GreedyMaximalMatchingEdgeOrder(n, shuffled), nil
}
