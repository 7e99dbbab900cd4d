// Package misproto collects maximal-independent-set protocols for the
// distributed sketching model: the bounded-budget one-round candidate
// whose failure Theorem 2 predicts, and the two-round adaptive
// O(√n·polylog n) protocol in the spirit of Ghaffari et al. [35] that the
// paper cites as the matching upper bound with one extra round.
package misproto

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sampleSketch writes up to `budget` uniformly-sampled distinct neighbors
// preceded by their count (shared with the matching protocols' shape, but
// kept local to avoid a dependency knot).
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
	src := coins.Derive("mis-sample").DeriveIndex(view.ID).Source()
	perm := src.Perm(view.Degree())
	for i := 0; i < k; i++ {
		w.WriteUint(uint64(view.Neighbors[perm[i]]), idWidth)
	}
	return w
}

// readSampledGraph rebuilds the reported subgraph.
func readSampledGraph(n int, sketches []*bitio.Reader) (*graph.Graph, error) {
	idWidth := bitio.UintWidth(n)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		k, err := sketches[v].ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("misproto: sketch %d: %w", v, err)
		}
		for i := uint64(0); i < k; i++ {
			u, err := sketches[v].ReadUint(idWidth)
			if err != nil {
				return nil, fmt.Errorf("misproto: sketch %d: %w", v, err)
			}
			if int(u) != v && int(u) < n {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.Build(), nil
}

// readSampledGraphTolerant is readSampledGraph with per-vertex damage
// tolerance for faulted transcripts: empty, truncated, or invalid-entry
// sketches contribute what they can and are counted in badVertices. On an
// undamaged transcript it matches readSampledGraph with badVertices == 0,
// so clean runs are unaffected.
func readSampledGraphTolerant(n int, sketches []*bitio.Reader) (*graph.Graph, int) {
	idWidth := bitio.UintWidth(n)
	b := graph.NewBuilder(n)
	badVertices := 0
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
			if int(u) != v && int(u) < n {
				b.AddEdge(v, int(u))
			} else {
				bad = true
			}
		}
		if r.Remaining() != 0 {
			bad = true // longer than its own count declared
		}
		if bad {
			badVertices++
		}
	}
	return b.Build(), badVertices
}

// NeighborSample is the bounded-budget one-round candidate: every vertex
// reports NeighborsPerVertex random neighbors and the referee outputs a
// greedy MIS of the reported subgraph. Unreported edges can make the
// output either non-independent or non-maximal in the true graph; both
// error modes are the ones the paper's model explicitly permits and
// Theorem 2 exploits.
type NeighborSample struct {
	// NeighborsPerVertex is the per-player report budget.
	NeighborsPerVertex int
}

var _ core.Protocol[[]int] = (*NeighborSample)(nil)

// Name implements core.Protocol.
func (p *NeighborSample) Name() string {
	return fmt.Sprintf("neighbor-sample-%d", p.NeighborsPerVertex)
}

// Sketch implements core.Protocol.
func (p *NeighborSample) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return sampleSketch(view, p.NeighborsPerVertex, coins), nil
}

// Decode implements core.Protocol.
func (p *NeighborSample) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]int, error) {
	g, err := readSampledGraph(n, sketches)
	if err != nil {
		return nil, err
	}
	order := coins.Derive("mis-order").Source().Perm(n)
	return graph.GreedyMIS(g, order), nil
}
