package agm

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/l0"
	"repro/internal/rng"
)

// SkeletonProtocol is the AGM k-edge-connectivity certificate [AGM,
// SODA'12], another of the paper's Section 1 contrast points ("minimum
// spanning trees and edge connectivity [1]"). Every vertex sends k
// independent groups of forest sketches; the referee peels spanning
// forests F_1, ..., F_k, where F_i spans G minus the earlier forests'
// edges. The peeling needs no extra rounds: sketches are linear, so the
// referee deletes an edge from a later group by updating both endpoint
// sketches itself.
//
// The union H = F_1 ∪ ... ∪ F_k is a sparse certificate: every cut of
// value ≤ k-1 in G has exactly its value in H, and every larger cut has
// ≥ k edges in H. Hence G is k-edge-connected iff H is.
type SkeletonProtocol struct {
	// K is the number of forests (the connectivity threshold to certify).
	K int
	// Forest configures each forest group.
	Forest Config
}

var _ core.Protocol[[]graph.Edge] = (*SkeletonProtocol)(nil)

// NewSkeleton returns the k-forest certificate protocol.
func NewSkeleton(k int, cfg Config) *SkeletonProtocol {
	return &SkeletonProtocol{K: k, Forest: cfg}
}

// Name implements core.Protocol.
func (p *SkeletonProtocol) Name() string { return fmt.Sprintf("agm-skeleton-%d", p.K) }

// groupStack derives forest group g's samplers from its own coin
// subtree; the groups' subtrees are disjoint.
func groupStack(n int, cfg Config, coins *rng.PublicCoins, g int) []l0.Spec {
	return specs(n, cfg, coins.Derive("skeleton").DeriveIndex(g))
}

// groupSpecs derives every forest group's samplers.
func (p *SkeletonProtocol) groupSpecs(n int, coins *rng.PublicCoins) ([]Config, [][]l0.Spec) {
	cfg := p.Forest.withDefaults(n)
	groups := make([][]l0.Spec, p.K)
	cfgs := make([]Config, p.K)
	for g := range groups {
		groups[g] = groupStack(n, cfg, coins, g)
		cfgs[g] = cfg
	}
	return cfgs, groups
}

// SketchBits returns the fixed length in bits of one vertex's sketch on
// an n-vertex graph under coins: K sampler stacks of equal size.
func (p *SkeletonProtocol) SketchBits(n int, coins *rng.PublicCoins) int {
	return p.K * stackBits(groupStack(n, p.Forest.withDefaults(n), coins, 0))
}

// Sketch implements core.Protocol. It runs SketchBlock's code over one
// lane into a pooled writer (block.go).
func (p *SkeletonProtocol) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{}
	if err := p.sketch(views[:], coins, out[:], bitio.NewPooledWriter); err != nil {
		return nil, err
	}
	return out[0], nil
}

// Decode implements core.Protocol: validate every group's stacks, then
// peel k forests, deleting each forest's edges from the later groups by
// linear updates.
func (p *SkeletonProtocol) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("agm: skeleton needs K >= 1, got %d", p.K)
	}
	cfgs, groups := p.groupSpecs(n, coins)
	st := newStacks(n, groups[0], cfgs[0].Reps)
	for v := range st.starts {
		st.starts[v] = *sketches[v]
	}
	for g, sps := range groups {
		if err := st.checkStacks(sps, sketches[:n]); err != nil {
			return nil, fmt.Errorf("agm: skeleton group %d: %w", g, err)
		}
	}
	return p.peel(cfgs, groups, st)
}

// peel extracts the K forests group by group: group g's Borůvka runs
// with every earlier forest's edges subtracted from its samplers.
func (p *SkeletonProtocol) peel(cfgs []Config, groups [][]l0.Spec, st *stacks) ([]graph.Edge, error) {
	var certificate []graph.Edge
	for g, sps := range groups {
		st.sps, st.offset, st.removed = sps, g*stackBits(groups[0]), certificate
		forest, err := boruvka(cfgs[g].Rounds, st)
		if err != nil {
			return certificate, fmt.Errorf("agm: skeleton group %d: %w", g, err)
		}
		certificate = append(certificate, forest...)
	}
	return certificate, nil
}

// VerifyCertificate checks the k-forest certificate property against the
// true graph: every certificate edge is a G-edge, the certificate
// decomposes into forests, and for the global min cut semantics it
// suffices that each cut of G has min(cutG, k) certificate edges — here
// verified on vertex-singleton cuts and on the components structure:
// connectivity of H must match connectivity of G. Full cut enumeration is
// exponential; CutPreserved spot-checks random cuts instead.
func VerifyCertificate(g *graph.Graph, cert []graph.Edge, k int) error {
	for _, e := range cert {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Errorf("agm: certificate edge %v not in G", e)
		}
	}
	seen := make(map[graph.Edge]bool, len(cert))
	for _, e := range cert {
		if seen[e] {
			return fmt.Errorf("agm: duplicate certificate edge %v", e)
		}
		seen[e] = true
	}
	hb := graph.NewBuilder(g.N())
	for _, e := range cert {
		hb.AddEdge(e.U, e.V)
	}
	h := hb.Build()
	_, gComps := g.Components()
	_, hComps := h.Components()
	if gComps != hComps {
		return fmt.Errorf("agm: certificate has %d components, G has %d", hComps, gComps)
	}
	// Singleton cuts: deg_H(v) must be min(deg_G(v), ..) at least
	// min(k, deg_G(v)).
	for v := 0; v < g.N(); v++ {
		want := g.Degree(v)
		if want > k {
			want = k
		}
		if h.Degree(v) < want {
			return fmt.Errorf("agm: vertex %d has certificate degree %d < min(k, deg) = %d",
				v, h.Degree(v), want)
		}
	}
	return nil
}

// CutPreserved checks min(cut_G(S), k) <= cut_H(S) for one vertex subset.
func CutPreserved(g *graph.Graph, cert []graph.Edge, k int, side []bool) bool {
	inCert := make(map[graph.Edge]bool, len(cert))
	for _, e := range cert {
		inCert[e] = true
	}
	cutG, cutH := 0, 0
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			cutG++
			if inCert[e] {
				cutH++
			}
		}
	}
	want := cutG
	if want > k {
		want = k
	}
	return cutH >= want
}
