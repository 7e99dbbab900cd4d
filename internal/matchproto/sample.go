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

// readReport parses one player's report — a uvarint count, then that
// many neighbor IDs at id width — appending the valid IDs to dst. It is
// the one reader of every message the matching protocols send, and it
// tolerates damage: a report that is empty, truncated, longer than its
// count declares, or names an invalid neighbor yields what parsed, with
// ok false. count is the declared length, for cap accounting. Players
// always write the count and never an invalid neighbor, so a clean
// report has ok true.
func readReport(dst []int, n, v int, r *bitio.Reader) (neighbors []int, count uint64, ok bool) {
	if r == nil || r.Remaining() == 0 {
		return dst, 0, false
	}
	k, err := r.ReadUvarint()
	if err != nil {
		return dst, 0, false
	}
	ok = true
	idWidth := bitio.UintWidth(n)
	for i := uint64(0); i < k; i++ {
		u, err := r.ReadUint(idWidth)
		if err != nil {
			return dst, k, false
		}
		if int(u) == v || int(u) >= n {
			ok = false
			continue
		}
		dst = append(dst, int(u))
	}
	return dst, k, ok && r.Remaining() == 0
}

// sampledEdges reconstructs the reported edge set: edge {u,v} is known
// to the referee if either endpoint reported it. A damaged sketch
// contributes what parsed and is counted in bad.
func sampledEdges(n int, sketches []*bitio.Reader) (edges []graph.Edge, bad int) {
	seen := make(map[graph.Edge]bool)
	var neighbors []int
	for v := 0; v < n; v++ {
		var ok bool
		neighbors, _, ok = readReport(neighbors[:0], n, v, sketches[v])
		if !ok {
			bad++
		}
		for _, u := range neighbors {
			e := graph.NewEdge(v, u)
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	return edges, bad
}

// decodeSampledEdges is the one-round referees' reading: the reported
// edge set, or an error when any sketch was damaged.
func decodeSampledEdges(n int, sketches []*bitio.Reader) ([]graph.Edge, error) {
	edges, bad := sampledEdges(n, sketches)
	if bad > 0 {
		return nil, fmt.Errorf("matchproto: %d of %d sketches damaged", bad, n)
	}
	return edges, nil
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
	edges, err := decodeSampledEdges(n, sketches)
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
