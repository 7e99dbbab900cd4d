package dynstream

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// SemiStream is the repository's first multi-pass protocol: a
// semi-streaming-flavored (1+ε)-approximate maximum matching, run as
// 2k+2 adaptive passes for k = ⌈1/ε⌉ over the engine's referee feedback
// lane (cf. the multi-pass streaming matching line of work the ROADMAP
// cites, arXiv:2412.19057).
//
// The pass structure implements augmenting-path discovery: by Hopcroft–
// Karp, a matching M with no augmenting path shorter than 2k+1 edges
// already has |M| ≥ k/(k+1)·|M*| ≥ (1−ε)·|M*|, so the referee only needs
// to see the edges lying on short augmenting paths. Each pass:
//
//   - every player reports a capped batch of incident edges it has not
//     reported before — pass 0 a uniform seed sample, later passes the
//     edges selected by the referee's last feedback;
//   - the referee pools every reported edge (the pool only grows),
//     recomputes a maximum matching M_r of the pool with the exact
//     blossom algorithm (the model's referee is computationally
//     unbounded; only communication is scarce), and broadcasts as
//     feedback M_r plus the "active set" A_r — every vertex within
//     pool-distance 2k of a vertex left free by M_r, the region where a
//     short augmenting path can live;
//   - on the next pass, active players report their whole (capped)
//     neighborhood and passive players report only their edges into the
//     active set, extending the discovered alternating structure by one
//     hop per pass.
//
// After the final pass the referee outputs a maximum matching of the
// pool. The referee's feedback derivation is a pure function of the
// sealed transcript and the public coins, so the engine's determinism
// contract extends to every pass; the (1−ε) guarantee is enforced
// empirically — the registry verifier and the E50 sweep compare |M|
// against the blossom optimum of the true input graph.
type SemiStream struct {
	// Eps is the approximation slack; 0 selects DefaultEps.
	Eps float64
	// SeedBudget is the pass-0 sample size in edges; 0 selects ⌈√n⌉.
	SeedBudget int
	// Cap bounds any single report in edges; 0 selects
	// ⌈8·√n·log2(n+1)⌉. Reports at the cap surface as a degraded
	// resilience verdict, never as silent truncation.
	Cap int
}

// DefaultEps is the registry builder's approximation slack.
const DefaultEps = 0.25

var (
	_ engine.ResilientProtocol[[]graph.Edge] = (*SemiStream)(nil)
	_ engine.Adaptive                        = (*SemiStream)(nil)
	_ engine.BlockBroadcaster                = (*SemiStream)(nil)
)

// NewSemiStream returns the protocol with the given slack (0 selects
// DefaultEps) and default budgets.
func NewSemiStream(eps float64) *SemiStream { return &SemiStream{Eps: eps} }

// EpsOf returns the effective approximation slack.
func (p *SemiStream) EpsOf() float64 {
	if p.Eps > 0 {
		return p.Eps
	}
	return DefaultEps
}

// k is the augmenting-path depth parameter ⌈1/ε⌉.
func (p *SemiStream) k() int { return int(math.Ceil(1 / p.EpsOf())) }

// Name implements engine.Protocol.
func (p *SemiStream) Name() string { return fmt.Sprintf("semistream-matching(eps=%g)", p.EpsOf()) }

// Rounds implements engine.Protocol: one seed pass, then one pass per
// discovery hop up to the maximal relevant alternating depth 2k, plus a
// settling pass after the last feedback.
func (p *SemiStream) Rounds() int { return 2*p.k() + 2 }

func (p *SemiStream) seedBudget(n int) int {
	if p.SeedBudget > 0 {
		return p.SeedBudget
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

func (p *SemiStream) capEdges(n int) int {
	if p.Cap > 0 {
		return p.Cap
	}
	return int(math.Ceil(8 * math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
}

// readReport parses one player's report (uvarint count + neighbor IDs)
// tolerantly, appending the valid IDs to dst: malformed entries are
// skipped, and ok reports whether the message parsed cleanly end to end.
// count is the declared length, for cap accounting.
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
		if int(u) >= n || int(u) == v {
			ok = false
			continue
		}
		dst = append(dst, int(u))
	}
	return dst, k, ok && r.Remaining() == 0
}

// pool is the referee's edge pool: every edge the sealed passes
// reported, in pass order, grown one pass at a time by add. Each pass is
// parsed once, and the same parse counts its damaged reports and every
// report whose declared length reached the cap.
type pool struct {
	n, capEdges int
	seen        map[graph.Edge]bool
	edges       []graph.Edge
	worst       int   // most damaged reports in any one pass
	capHits     int   // reports whose declared length reached the cap
	neighbors   []int // readReport's buffer
}

// add parses sealed pass round into the pool.
func (pl *pool) add(t *engine.Transcript, round int) {
	bad := 0
	for v := 0; v < pl.n; v++ {
		neighbors, count, ok := readReport(pl.neighbors[:0], pl.n, v, t.Message(round, v))
		pl.neighbors = neighbors
		if !ok {
			bad++
		}
		if count >= uint64(pl.capEdges) {
			pl.capHits++
		}
		for _, u := range neighbors {
			e := graph.NewEdge(v, u)
			if !pl.seen[e] {
				pl.seen[e] = true
				pl.edges = append(pl.edges, e)
			}
		}
	}
	pl.worst = max(pl.worst, bad)
}

// poolThrough pools sealed passes 0..upto (inclusive).
func (p *SemiStream) poolThrough(n int, t *engine.Transcript, upto int) *pool {
	pl := &pool{n: n, capEdges: p.capEdges(n), seen: make(map[graph.Edge]bool)}
	for round := 0; round <= upto; round++ {
		pl.add(t, round)
	}
	return pl
}

// feedback encodes the referee's broadcast for a pool: the blossom
// maximum matching of the pooled edges (uvarint count, then both
// endpoints at id width) followed by the n-bit mask of the active set,
// the vertices within pool-distance 2k of a vertex that matching leaves
// free.
func (p *SemiStream) feedback(pl *pool) *bitio.Writer {
	n := pl.n
	pooled := graph.FromEdges(n, pl.edges)
	matching := graph.MaximumMatching(pooled)
	matched := make([]bool, n)
	for _, e := range matching {
		matched[e.U], matched[e.V] = true, true
	}
	// BFS to depth 2k from every free vertex, in the pooled graph.
	active := make([]bool, n)
	depth := make([]int, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		depth[v] = -1
		if !matched[v] {
			depth[v] = 0
			active[v] = true
			queue = append(queue, v)
		}
	}
	limit := 2 * p.k()
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if depth[v] >= limit {
			continue
		}
		for _, u := range pooled.Neighbors(v) {
			if depth[u] < 0 {
				depth[u] = depth[v] + 1
				active[u] = true
				queue = append(queue, u)
			}
		}
	}
	idWidth := bitio.UintWidth(n)
	w := &bitio.Writer{}
	w.Grow(bitio.UvarintWidth(uint64(len(matching))) + 2*len(matching)*idWidth + n)
	w.WriteUvarint(uint64(len(matching)))
	for _, e := range matching {
		w.WriteUint(uint64(e.U), idWidth)
		w.WriteUint(uint64(e.V), idWidth)
	}
	for v := 0; v < n; v++ {
		w.WriteBit(active[v])
	}
	return w
}

// Feedback implements engine.Adaptive: after every pass except the last
// the referee broadcasts the feedback of its pool of sealed passes.
// After the final pass the referee is silent.
func (p *SemiStream) Feedback(round int, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	if round >= p.Rounds()-1 {
		return nil, nil
	}
	return p.feedback(p.poolThrough(t.Players(round), t, round)), nil
}

// readFeedback parses a feedback message into the matched-vertex and
// active-set masks. Tolerant like readReport; ok reports a clean parse.
func readFeedback(n int, r *bitio.Reader) (matched, active []bool, ok bool) {
	matched = make([]bool, n)
	active = make([]bool, n)
	ok = true
	if r == nil || r.Remaining() == 0 {
		return matched, active, false
	}
	k, err := r.ReadUvarint()
	if err != nil {
		return matched, active, false
	}
	idWidth := bitio.UintWidth(n)
	for i := uint64(0); i < k; i++ {
		u, err := r.ReadUint(idWidth)
		if err != nil {
			return matched, active, false
		}
		v, err := r.ReadUint(idWidth)
		if err != nil {
			return matched, active, false
		}
		if int(u) >= n || int(v) >= n || u == v {
			ok = false
			continue
		}
		matched[u], matched[v] = true, true
	}
	for v := 0; v < n; v++ {
		b, err := r.ReadBit()
		if err != nil {
			return matched, active, false
		}
		active[v] = b
	}
	if r.Remaining() != 0 {
		ok = false
	}
	return matched, active, ok
}

// sentBefore replays player v's own earlier reports from the sealed
// transcript — the deduplication state a streaming player would keep
// locally, reconstructed from public information so the protocol stays
// stateless across passes.
func sentBefore(n, v, round int, t *engine.Transcript) map[int]bool {
	sent := make(map[int]bool)
	for r := 0; r < round; r++ {
		neighbors, _, _ := readReport(nil, n, v, t.Message(r, v))
		for _, u := range neighbors {
			sent[u] = true
		}
	}
	return sent
}

// writeReport encodes a report, applying the cap with a coin-derived
// uniform truncation (never silent: the referee sees count == cap and
// demotes the run's resilience verdict).
func (p *SemiStream) writeReport(view core.VertexView, round int, neighbors []int, coins *rng.PublicCoins) *bitio.Writer {
	capEdges := p.capEdges(view.N)
	if len(neighbors) > capEdges {
		src := coins.Derive("semistream-cap").DeriveIndex(round*view.N + view.ID).Source()
		src.Shuffle(len(neighbors), func(i, j int) { neighbors[i], neighbors[j] = neighbors[j], neighbors[i] })
		neighbors = neighbors[:capEdges]
	}
	idWidth := bitio.UintWidth(view.N)
	w := &bitio.Writer{}
	w.Grow(bitio.UvarintWidth(uint64(len(neighbors))) + len(neighbors)*idWidth)
	w.WriteUvarint(uint64(len(neighbors)))
	for _, u := range neighbors {
		w.WriteUint(uint64(u), idWidth)
	}
	return w
}

// Broadcast implements engine.Protocol: BroadcastBlock over one view.
func (p *SemiStream) Broadcast(round int, view core.VertexView, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{}
	_, err := p.BroadcastBlock(round, views[:], t, coins, out[:])
	return out[0], err
}

// BroadcastBlock implements engine.BlockBroadcaster. Pass 0 seeds the
// pool with a uniform sample; every later pass reports the
// not-yet-reported incident edges the last feedback selects — all of
// them for an active vertex, only those into the active set for a
// passive one. The feedback is parsed once for the whole block.
func (p *SemiStream) BroadcastBlock(round int, views []core.VertexView, t *engine.Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	if round >= p.Rounds() {
		return 0, fmt.Errorf("dynstream: unexpected round %d", round)
	}
	if len(views) == 0 {
		return 0, nil
	}
	if round == 0 {
		budget := p.seedBudget(views[0].N)
		for i, view := range views {
			k := min(budget, view.Degree())
			src := coins.Derive("semistream-seed").DeriveIndex(view.ID).Source()
			perm := src.Perm(view.Degree())
			neighbors := make([]int, k)
			for j := 0; j < k; j++ {
				neighbors[j] = view.Neighbors[perm[j]]
			}
			out[i] = p.writeReport(view, round, neighbors, coins)
		}
		return 0, nil
	}
	_, active, _ := readFeedback(views[0].N, t.Feedback(round-1))
	for i, view := range views {
		sent := sentBefore(view.N, view.ID, round, t)
		var neighbors []int
		for _, u := range view.Neighbors {
			if sent[u] {
				continue
			}
			if active[view.ID] || active[u] {
				neighbors = append(neighbors, u)
			}
		}
		out[i] = p.writeReport(view, round, neighbors, coins)
	}
	return 0, nil
}

// Decode implements engine.Protocol: the output is the blossom maximum
// matching of every edge any player ever reported.
func (p *SemiStream) Decode(n int, t *engine.Transcript, coins *rng.PublicCoins) ([]graph.Edge, error) {
	pl := p.poolThrough(n, t, p.Rounds()-1)
	return graph.MaximumMatching(graph.FromEdges(n, pl.edges)), nil
}

// DecodeResilient is Decode's output graded for damage, satisfying
// engine.ResilientProtocol. It grows the pool pass by pass, checking
// each sealed feedback against the feedback of the pool at that pass:
//
//   - ok: every report of every pass parsed cleanly, no report was at
//     the cap, and every sealed feedback equals the referee's own
//     recomputation from the sealed uplink;
//   - degraded: some reports were missing/garbled (their parseable
//     prefix still contributes), a report hit the cap (possible
//     truncation), or a sealed feedback diverged from recomputation (a
//     damaged downlink — players acted on feedback the referee never
//     sent);
//   - failed: more than half the players were damaged in some pass.
func (p *SemiStream) DecodeResilient(n int, t *engine.Transcript, coins *rng.PublicCoins) ([]graph.Edge, core.Resilience, error) {
	pl := p.poolThrough(n, t, 0)
	fbDamaged := false
	for round := 0; round < p.Rounds()-1; round++ {
		// Both sides keep their padding bits zero, so equal bits mean
		// equal bytes.
		w := p.feedback(pl)
		fbDamaged = fbDamaged || t.FeedbackBitLen(round) != w.Len() || !bytes.Equal(t.AppendFeedback(nil, round), w.Bytes())
		pl.add(t, round+1)
	}
	out := graph.MaximumMatching(graph.FromEdges(n, pl.edges))
	switch {
	case 2*pl.worst > n:
		return out, core.ResilienceFailed, nil
	case pl.worst > 0 || pl.capHits > 0 || fbDamaged:
		return out, core.ResilienceDegraded, nil
	default:
		return out, core.ResilienceOK, nil
	}
}
