package matchproto

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harddist"
	"repro/internal/rng"
)

// SpecialFilter is the strongest fair candidate for D_MM instances under
// the paper's Remark 3.6: the referee is handed σ and j⋆ for free (so it
// knows exactly which 2rk vertex slots host the special matchings and
// which vertex pairs are potential special edges), players send random
// incident edges exactly as in EdgeSample, and the referee simply keeps
// every reported edge that belongs to some M^RS_{i,j⋆}.
//
// Its output is always a valid matching between unique vertices, so its
// success against the Remark 3.6(iv) goal (recover ≥ k·r/4 special edges)
// isolates precisely the quantity the lower bound controls: how many
// special-edge survival bits reach the referee per sketch bit. Theorem 1
// says no protocol — including this advice-assisted one — can win with
// o(r) bits per player.
type SpecialFilter struct {
	// Instance supplies the referee advice (σ, j⋆). Players never touch
	// it: Sketch is budget-driven only.
	Instance *harddist.Instance
	// EdgesPerVertex is the per-player report budget.
	EdgesPerVertex int
}

var _ core.Protocol[[]graph.Edge] = (*SpecialFilter)(nil)

// Name implements core.Protocol.
func (p *SpecialFilter) Name() string {
	return fmt.Sprintf("special-filter-%d", p.EdgesPerVertex)
}

// Sketch implements core.Protocol. Identical to EdgeSample: the advice is
// referee-side only.
func (p *SpecialFilter) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return sampleSketch(view, p.EdgesPerVertex, coins), nil
}

// Decode implements core.Protocol: keep reported edges that are special
// slots of some copy.
func (p *SpecialFilter) Decode(n int, sketches []*bitio.Reader, _ *rng.PublicCoins) ([]graph.Edge, error) {
	reported, err := decodeSampledEdges(n, sketches)
	if err != nil {
		return nil, err
	}
	special := make(map[graph.Edge]bool)
	for i := 0; i < p.Instance.Params.K; i++ {
		for _, e := range p.Instance.SpecialMatchingFull(i) {
			special[e] = true
		}
	}
	var out []graph.Edge
	for _, e := range reported {
		if special[e] {
			out = append(out, e)
		}
	}
	return out, nil
}

// RecoveredSpecialGoal returns the Remark 3.6(iv) success verifier for an
// instance: the output must be a set of true surviving special edges of
// size at least k·r/4. It is the success predicate for experiments E5/E7.
func RecoveredSpecialGoal(inst *harddist.Instance) func([]graph.Edge) bool {
	threshold := inst.Claim31Threshold()
	special := make(map[graph.Edge]bool)
	for i := 0; i < inst.Params.K; i++ {
		for _, e := range inst.SpecialMatchingSurvived(i) {
			special[e] = true
		}
	}
	return func(out []graph.Edge) bool {
		if !graph.IsVertexDisjoint(out) {
			return false
		}
		count := 0
		for _, e := range out {
			if !special[e] {
				return false // phantom or non-special edge
			}
			count++
		}
		return float64(count) >= threshold
	}
}
