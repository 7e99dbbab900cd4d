// Package agm implements the Ahn–Guha–McGregor graph sketches [AGM,
// SODA'12] in the distributed sketching model: every vertex sends an
// O(polylog n)-bit linear sketch of its signed edge-incidence vector, and
// the referee recovers a spanning forest by running Borůvka's algorithm on
// merged sketches.
//
// This is the paper's headline contrast (Section 1): spanning forest —
// and with it connectivity — needs only polylog(n)-bit sketches, while
// Theorem 1 and 2 show maximal matching and MIS need Ω(√n / e^Θ(√log n)).
//
// The incidence vector of vertex v assigns edge {u,v} (indexed as
// min·n+max) the value +1 when v < u and -1 when v > u. Summing the
// vectors of a component's vertices cancels every internal edge and leaves
// exactly the component's boundary edges, so an ℓ₀-sample of the sum is a
// uniform-ish outgoing edge — precisely what Borůvka needs.
package agm

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/l0"
	"repro/internal/rng"
)

// Config controls the sketch dimensions.
type Config struct {
	// Rounds is the number of Borůvka rounds; each consumes fresh sampler
	// randomness. 0 selects 2·ceil(log2 n) + 4.
	Rounds int
	// Reps is the number of independent samplers per round, boosting the
	// per-component success probability. 0 selects 3.
	Reps int
	// BackupReps, when positive, appends a resilient tail to every
	// sketch: a 32-bit checksum of the primary sampler stack, a second
	// fully independent stack of Rounds×BackupReps samplers derived from
	// fresh coins, and that stack's checksum. DecodeResilient uses the
	// checksums to detect in-range bit corruption and falls back to the
	// backup stack when primaries are damaged (resilient.go). The default
	// 0 keeps the classic AGM encoding, and the strict Decode ignores the
	// tail entirely, so enabling it never changes clean-run outputs.
	BackupReps int
}

// withDefaults resolves zero fields for an n-vertex graph.
func (c Config) withDefaults(n int) Config {
	if c.Rounds == 0 {
		c.Rounds = 2*bitio.UintWidth(n+1) + 4
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

// edgeIndex maps edge {u,v} to its universe index min·n+max.
func edgeIndex(n, u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(n) + uint64(v)
}

// edgeFromIndex inverts edgeIndex, validating the decoded endpoints.
func edgeFromIndex(n int, idx uint64) (graph.Edge, error) {
	u := int(idx / uint64(n))
	v := int(idx % uint64(n))
	if u < 0 || v < 0 || u >= n || v >= n || u >= v {
		return graph.Edge{}, fmt.Errorf("agm: index %d decodes to invalid edge (%d,%d)", idx, u, v)
	}
	return graph.Edge{U: u, V: v}, nil
}

// specs derives the (round × rep) sampler specifications from public
// coins; players and referee call this identically. The derivation is
// memoized per (n, cfg, coin seed) — see speccache.go — so the n vertices
// of one run share a single derivation instead of each repeating it.
func specs(n int, cfg Config, coins *rng.PublicCoins) []l0.Spec {
	return derivedSpecs(uint64(n)*uint64(n), cfg.Rounds*cfg.Reps, coins.Derive("agm"))
}

// ForestProtocol is the one-round AGM spanning forest protocol.
type ForestProtocol struct {
	cfg Config
}

var _ core.Protocol[[]graph.Edge] = (*ForestProtocol)(nil)

// NewSpanningForest returns the spanning forest protocol.
func NewSpanningForest(cfg Config) *ForestProtocol {
	return &ForestProtocol{cfg: cfg}
}

// Name implements core.Protocol.
func (p *ForestProtocol) Name() string { return "agm-spanning-forest" }

// Sketch implements core.Protocol: the vertex serializes one ℓ₀-sketch of
// its incidence vector per (round, rep), plus — under BackupReps — the
// checksummed backup tail described on Config. It runs SketchBlock's
// code over one lane into a pooled writer (block.go).
func (p *ForestProtocol) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{}
	p.sketch(views[:], coins, out[:], bitio.NewPooledWriter)
	return out[0], nil
}

// Decode implements core.Protocol: Borůvka over merged sketches, read
// round by round through the banked referee (referee.go).
func (p *ForestProtocol) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) ([]graph.Edge, error) {
	cfg := p.cfg.withDefaults(n)
	st := newStacks(n, specs(n, cfg, coins), cfg.Reps)
	for v := range st.starts {
		st.starts[v] = *sketches[v]
	}
	if err := st.checkStacks(st.sps, sketches[:n]); err != nil {
		return nil, err
	}
	return boruvka(cfg.Rounds, st)
}

// ComponentsProtocol counts connected components via the spanning forest.
type ComponentsProtocol struct {
	forest *ForestProtocol
}

var _ core.Protocol[int] = (*ComponentsProtocol)(nil)

// NewComponentCount returns a protocol whose output is the number of
// connected components of the input graph.
func NewComponentCount(cfg Config) *ComponentsProtocol {
	return &ComponentsProtocol{forest: NewSpanningForest(cfg)}
}

// Name implements core.Protocol.
func (p *ComponentsProtocol) Name() string { return "agm-component-count" }

// Sketch implements core.Protocol.
func (p *ComponentsProtocol) Sketch(view core.VertexView, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return p.forest.Sketch(view, coins)
}

// Decode implements core.Protocol.
func (p *ComponentsProtocol) Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) (int, error) {
	forest, err := p.forest.Decode(n, sketches, coins)
	if err != nil {
		return 0, err
	}
	return n - len(forest), nil
}
