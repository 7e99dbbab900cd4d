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

// readIDs parses one ID list — a uvarint count, then that many IDs at
// id width — appending the valid IDs to dst. It is the one list reader
// of every message the MIS protocols send, and it tolerates damage: a
// list cut short, or naming v itself or an ID ≥ n, yields what parsed
// with ok false. count is the declared length, for cap accounting.
// Players never write an invalid ID, so a clean list has ok true.
func readIDs(dst []int, r *bitio.Reader, n, v int) (ids []int, count uint64, ok bool) {
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
	return dst, k, ok
}

// sampledGraph rebuilds the reported subgraph. A sketch that is empty,
// damaged, or longer than its list declares contributes what parsed and
// is counted in bad.
func sampledGraph(n int, sketches []*bitio.Reader) (*graph.Graph, int) {
	b := graph.NewBuilder(n)
	bad := 0
	var neighbors []int
	for v := 0; v < n; v++ {
		r := sketches[v]
		if r == nil || r.Remaining() == 0 {
			bad++
			continue
		}
		var ok bool
		neighbors, _, ok = readIDs(neighbors[:0], r, n, v)
		for _, u := range neighbors {
			b.AddEdge(v, u)
		}
		if !ok || r.Remaining() != 0 {
			bad++
		}
	}
	return b.Build(), bad
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
	g, bad := sampledGraph(n, sketches)
	if bad > 0 {
		return nil, fmt.Errorf("misproto: %d of %d sketches damaged", bad, n)
	}
	order := coins.Derive("mis-order").Source().Perm(n)
	return graph.GreedyMIS(g, order), nil
}
