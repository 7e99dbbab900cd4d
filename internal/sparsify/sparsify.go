// Package sparsify implements AGM-style cut sparsification from one
// round of sketches [Ahn–Guha–McGregor, PODS'12], cited by the paper's
// introduction ("cut sparsifiers and approximate min/max cuts [2]").
//
// Construction: a public hash assigns every edge a geometric level
// (Pr[level ≥ i] = 2^-i), giving nested subsamples G_0 ⊇ G_1 ⊇ ... For
// each level the referee peels a k-edge-connectivity skeleton from that
// level's sketches. A skeleton retains the edges of locally weak
// (≤ k-connected) regions, so the first (shallowest) level whose
// skeleton retains an edge estimates the edge's strength class: strength
// ≈ k·2^i there, where the effective sampling rate 2^-i matches the
// Benczúr–Karger rate k/strength. The sparsifier therefore weights each
// edge 2^i for the shallowest retaining level i; strong-region edges
// enter only at deep levels with large weights, standing in for the many
// parallel paths sampled away.
//
// Quality is measured, not assumed: experiment E17 reports relative cut
// errors over random cuts. Per-vertex cost is L·k forest sketches
// (polylog each) for L = O(log n) levels.
package sparsify

import (
	"fmt"

	"repro/internal/agm"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// Config sizes the sparsifier.
type Config struct {
	// Levels is the number of subsampling levels; 0 selects
	// ceil(log2(n))+1.
	Levels int
	// K is the per-level skeleton connectivity parameter; 0 selects 4.
	K int
	// Forest configures the underlying forest sketches.
	Forest agm.Config
}

func (c Config) withDefaults(n int) Config {
	if c.Levels == 0 {
		c.Levels = bitio.UintWidth(n) + 1
	}
	if c.K == 0 {
		c.K = 4
	}
	return c
}

// Sparsifier is the weighted output graph.
type Sparsifier struct {
	N      int
	Weight map[graph.Edge]float64
}

// CutValue returns the sparsifier's weight across the given cut.
func (s *Sparsifier) CutValue(side []bool) float64 {
	total := 0.0
	for e, w := range s.Weight {
		if side[e.U] != side[e.V] {
			total += w
		}
	}
	return total
}

// Edges returns the number of sparsifier edges.
func (s *Sparsifier) Edges() int { return len(s.Weight) }

// TrueCut returns the unweighted cut value of g.
func TrueCut(g *graph.Graph, side []bool) float64 {
	total := 0.0
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			total++
		}
	}
	return total
}

// Protocol is the one-round sparsifier protocol.
type Protocol struct {
	cfg Config
}

var _ core.Protocol[*Sparsifier] = (*Protocol)(nil)

// New returns the protocol.
func New(cfg Config) *Protocol { return &Protocol{cfg: cfg} }

// Name implements core.Protocol.
func (p *Protocol) Name() string { return "agm-cut-sparsifier" }

// edgeLevel computes the public geometric level of an edge.
func edgeLevel(n, u, v, maxLevel int, coins *rng.PublicCoins) int {
	fam := hashing.NewPairwise(coins.Derive("sparsify-level").Source())
	e := graph.NewEdge(u, v)
	return fam.Level(uint64(e.U)*uint64(n)+uint64(e.V), maxLevel)
}

// skeletons builds the per-level skeleton protocols (distinct coins per
// level live inside the skeleton's own derivation, so one shared
// instance per level suffices).
func (p *Protocol) skeletons(n int) (Config, []*agm.SkeletonProtocol) {
	cfg := p.cfg.withDefaults(n)
	out := make([]*agm.SkeletonProtocol, cfg.Levels)
	for i := range out {
		out[i] = agm.NewSkeleton(cfg.K, cfg.Forest)
	}
	return cfg, out
}

// Sketch implements core.Protocol: for each level, delegate to the
// skeleton protocol on the level-filtered view.
func (p *Protocol) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	cfg, skels := p.skeletons(view.N)
	w := &bitio.Writer{}
	for i := 0; i < cfg.Levels; i++ {
		var nbrs []int
		for _, u := range view.Neighbors {
			if edgeLevel(view.N, view.ID, u, cfg.Levels-1, coins) >= i {
				nbrs = append(nbrs, u)
			}
		}
		sub := core.VertexView{N: view.N, ID: view.ID, Neighbors: nbrs}
		sw, err := skels[i].Sketch(sub, coins.Derive("sparsify").DeriveIndex(i))
		if err != nil {
			return nil, fmt.Errorf("sparsify: level %d: %w", i, err)
		}
		w.WriteBytes(sw.Bytes())
		w.WriteUvarint(uint64(sw.Len()))
		bitio.Release(sw)
	}
	return w, nil
}

// Decode implements core.Protocol.
func (p *Protocol) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) (*Sparsifier, error) {
	cfg, skels := p.skeletons(n)
	sp := &Sparsifier{N: n, Weight: make(map[graph.Edge]float64)}
	for i := 0; i < cfg.Levels; i++ {
		levelCoins := coins.Derive("sparsify").DeriveIndex(i)
		// The skeleton's fixed sketch length fixes the payload length,
		// so the recorded one is only checked against it.
		expected := skels[i].SketchBits(n, levelCoins)
		// Re-slice each vertex's level-i segment. Sketch wrote the
		// payload bytes followed by the payload bit length.
		levelReaders := make([]*bitio.Reader, n)
		for v := 0; v < n; v++ {
			r := sketches[v]
			payload, err := r.ReadBytes((expected + 7) / 8)
			if err != nil {
				return nil, fmt.Errorf("sparsify: vertex %d level %d payload: %w", v, i, err)
			}
			recorded, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("sparsify: vertex %d level %d length: %w", v, i, err)
			}
			if int(recorded) != expected {
				return nil, fmt.Errorf("sparsify: vertex %d level %d: length %d, want %d",
					v, i, recorded, expected)
			}
			levelReaders[v] = bitio.NewReader(payload, expected)
		}
		forestEdges, err := skels[i].Decode(n, levelReaders, levelCoins)
		if err != nil {
			return nil, fmt.Errorf("sparsify: level %d decode: %w", i, err)
		}
		weight := float64(uint64(1) << uint(i))
		for _, e := range forestEdges {
			// Shallowest retaining level wins: levels run in increasing
			// order and the first assignment sticks.
			if _, ok := sp.Weight[e]; !ok {
				sp.Weight[e] = weight
			}
		}
	}
	return sp, nil
}

// Verify implements protocol.Sketcher: a structurally sound sparsifier
// supports only actual edges of g with weights ≥ 1 (each weight is 2^i
// for the shallowest retaining level i). Size is the support size and
// Value the total weight — approximation quality over random cuts is
// measured by experiment E17, not audited here.
func (p *Protocol) Verify(g *graph.Graph, out *Sparsifier) protocol.Outcome {
	o := protocol.Outcome{Kind: "sparsifier", Checked: true}
	if out == nil || out.N != g.N() {
		return o
	}
	o.Size = out.Edges()
	valid := true
	for e, w := range out.Weight {
		o.Value += w
		if !g.HasEdge(e.U, e.V) || w < 1 {
			valid = false
		}
	}
	o.Valid = valid
	return o
}
