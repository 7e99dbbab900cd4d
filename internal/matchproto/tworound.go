package matchproto

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TwoRound is the adaptive O(√n·polylog n) maximal matching protocol the
// paper credits to the filtering technique of Lattanzi et al. [46]
// (Section 1.1: "if one allows only one extra round of sketching, then
// both problems admit adaptive sketches of size O(n^{1/2})").
//
// Round 1: every vertex broadcasts ~√n random incident edges. The referee
// computes the greedy matching M₁ of the round-1 graph and broadcasts it
// back as its feedback message (engine.Adaptive) — the adaptive model's
// downlink, which replaces every party privately re-deriving M₁ from the
// full transcript.
// Round 2: every vertex still unmatched under the fed-back M₁ broadcasts
// its edges to other unmatched vertices (capped at Cap). The referee
// augments M₁ greedily with the round-2 edges. Filtering makes the
// residual graph sparse, so round-2 messages stay near √n as well; the
// cap is a safety valve whose violations surface as (measured) failures,
// never as silent wrong answers beyond non-maximality.
//
// The struct is stateless: the shared round-1 derivation travels through
// the transcript's sealed feedback lane, computed once, single-threaded,
// at the round barrier, and each engine shard parses it once for all of
// its players (BroadcastBlock).
type TwoRound struct {
	// SamplesPerVertex is the round-1 budget in edges; 0 selects ⌈√n⌉.
	SamplesPerVertex int
	// Cap bounds round-2 reports in edges; 0 selects ⌈4·√n·log2(n+1)⌉.
	Cap int
}

var (
	_ engine.ResilientProtocol[[]graph.Edge] = (*TwoRound)(nil)
	_ engine.Adaptive                        = (*TwoRound)(nil)
	_ engine.BlockBroadcaster                = (*TwoRound)(nil)
)

// NewTwoRound returns the protocol with default budgets.
func NewTwoRound() *TwoRound { return &TwoRound{} }

// Name implements engine.Protocol.
func (p *TwoRound) Name() string { return "two-round-filtering-mm" }

// Rounds implements engine.Protocol.
func (p *TwoRound) Rounds() int { return 2 }

func (p *TwoRound) samples(n int) int {
	if p.SamplesPerVertex > 0 {
		return p.SamplesPerVertex
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

func (p *TwoRound) capEdges(n int) int {
	if p.Cap > 0 {
		return p.Cap
	}
	return int(math.Ceil(4 * math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
}

// round1Matching computes the canonical greedy matching of the round-1
// broadcasts — the referee-side derivation behind the feedback message.
// Damaged sketches contribute what they can and are counted in r1bad,
// which DecodeResilient folds into its verdict, so a faulted round-1
// transcript never aborts the run.
func (p *TwoRound) round1Matching(n int, transcript *engine.Transcript, coins *rng.PublicCoins) ([]graph.Edge, int) {
	sketches := make([]*bitio.Reader, n)
	for v := 0; v < n; v++ {
		sketches[v] = transcript.Message(0, v)
	}
	edges, r1bad := sampledEdges(n, sketches)
	order := coins.Derive("2r-order").Source().Perm(len(edges))
	shuffled := make([]graph.Edge, len(edges))
	for i, j := range order {
		shuffled[i] = edges[j]
	}
	return graph.GreedyMaximalMatchingEdgeOrder(n, shuffled), r1bad
}

// Feedback implements engine.Adaptive: after round 1 seals, the referee
// broadcasts M₁ as an edge list (count, then both endpoints at id width,
// in greedy order). After the final round the referee is silent.
func (p *TwoRound) Feedback(round int, transcript *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	if round != 0 {
		return nil, nil
	}
	n := transcript.Players(0)
	m1, _ := p.round1Matching(n, transcript, coins)
	idWidth := bitio.UintWidth(n)
	w := &bitio.Writer{}
	w.Grow(bitio.UvarintWidth(uint64(len(m1))) + 2*len(m1)*idWidth)
	w.WriteUvarint(uint64(len(m1)))
	for _, e := range m1 {
		w.WriteUint(uint64(e.U), idWidth)
		w.WriteUint(uint64(e.V), idWidth)
	}
	return w, nil
}

// readMatchingFeedback parses the round-1 feedback broadcast back into
// the fed-back edge list and the matched-vertex mask every party derives
// from it. Parsing is tolerant (truncation stops, out-of-range entries
// are skipped) so that a faulted feedback message degrades the run
// instead of aborting it; ok reports whether every declared entry parsed
// cleanly. On the referee's own clean feedback the edges round-trip
// exactly.
func readMatchingFeedback(n int, r *bitio.Reader) (edges []graph.Edge, matched []bool, ok bool) {
	matched = make([]bool, n)
	ok = true
	if r == nil {
		return nil, matched, false
	}
	k, err := r.ReadUvarint()
	if err != nil {
		return nil, matched, false
	}
	idWidth := bitio.UintWidth(n)
	for i := uint64(0); i < k; i++ {
		u, err := r.ReadUint(idWidth)
		if err != nil {
			return edges, matched, false
		}
		v, err := r.ReadUint(idWidth)
		if err != nil {
			return edges, matched, false
		}
		if int(u) >= n || int(v) >= n || u == v {
			ok = false
			continue
		}
		edges = append(edges, graph.NewEdge(int(u), int(v)))
		matched[u] = true
		matched[v] = true
	}
	if r.Remaining() != 0 {
		ok = false
	}
	return edges, matched, ok
}

// Broadcast implements engine.Protocol: BroadcastBlock over one view.
func (p *TwoRound) Broadcast(round int, view core.VertexView, transcript *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{}
	_, err := p.BroadcastBlock(round, views[:], transcript, coins, out[:])
	return out[0], err
}

// BroadcastBlock implements engine.BlockBroadcaster. Round-2 players
// read M₁ from the referee's sealed feedback (Transcript.Feedback)
// rather than re-deriving it from the full round-1 transcript; the
// feedback is parsed once for the whole block, and every view's report
// is written from that one matched-vertex mask.
func (p *TwoRound) BroadcastBlock(round int, views []core.VertexView, transcript *engine.Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	if len(views) == 0 {
		return 0, nil
	}
	n := views[0].N
	switch round {
	case 0:
		for i, view := range views {
			out[i] = sampleSketch(view, p.samples(n), coins)
		}
	case 1:
		_, matched, _ := readMatchingFeedback(n, transcript.Feedback(0))
		capEdges := p.capEdges(n)
		idWidth := bitio.UintWidth(n)
		for i, view := range views {
			out[i] = residualReport(view, matched, capEdges, idWidth, coins)
		}
	default:
		return 0, fmt.Errorf("matchproto: unexpected round %d", round)
	}
	return 0, nil
}

// residualReport is a round-2 player's message: empty when M₁ matched
// it, else its edges to other unmatched vertices, at most capEdges of
// them.
func residualReport(view core.VertexView, matched []bool, capEdges, idWidth int, coins *rng.PublicCoins) *bitio.Writer {
	w := &bitio.Writer{}
	if matched[view.ID] {
		w.WriteUvarint(0)
		return w
	}
	var residual []int
	for _, u := range view.Neighbors {
		if !matched[u] {
			residual = append(residual, u)
		}
	}
	if len(residual) > capEdges {
		// Safety valve: report a random subset. May cost maximality;
		// the experiment counts that as a failure.
		src := coins.Derive("2r-cap").DeriveIndex(view.ID).Source()
		src.Shuffle(len(residual), func(i, j int) { residual[i], residual[j] = residual[j], residual[i] })
		residual = residual[:capEdges]
	}
	w.Grow(bitio.UvarintWidth(uint64(len(residual))) + len(residual)*idWidth)
	w.WriteUvarint(uint64(len(residual)))
	for _, u := range residual {
		w.WriteUint(uint64(u), idWidth)
	}
	return w
}

// round2 is what the referee's reading of a run met besides its output:
// the M₁ the sealed feedback carries, whether that feedback parsed
// cleanly, and the round-2 reports that were damaged or at the cap.
type round2 struct {
	fed          []graph.Edge
	fbOK         bool
	bad, capHits int
}

// decode is the referee's one reading of a run, under both Decode and
// DecodeResilient. It interprets round-2 reports against the M₁ it
// broadcast as feedback — the sealed feedback is what the players
// actually acted on, so decoding against it keeps referee and players
// consistent even over a damaged downlink — and augments that M₁
// greedily with whatever round-2 material parses.
func (p *TwoRound) decode(n int, transcript *engine.Transcript) ([]graph.Edge, round2) {
	fed, matched, fbOK := readMatchingFeedback(n, transcript.Feedback(0))
	d := round2{fed: fed, fbOK: fbOK}
	capEdges := p.capEdges(n)
	var residualEdges []graph.Edge
	var neighbors []int
	seen := make(map[graph.Edge]bool)
	for v := 0; v < n; v++ {
		var k uint64
		var ok bool
		neighbors, k, ok = readReport(neighbors[:0], n, v, transcript.Message(1, v))
		if !ok || (matched[v] && k != 0) { // matched vertices broadcast an empty report
			d.bad++
		}
		if int64(k) >= int64(capEdges) {
			d.capHits++ // at (or corrupted past) the cap: possible truncation
		}
		if matched[v] {
			continue
		}
		for _, u := range neighbors {
			e := graph.NewEdge(v, u)
			if !matched[u] && !seen[e] {
				seen[e] = true
				residualEdges = append(residualEdges, e)
			}
		}
	}
	m1 := graph.GreedyMaximalMatchingEdgeOrder(n, fed)
	m2 := graph.GreedyMaximalMatchingEdgeOrder(n, residualEdges)
	return append(m1, m2...), d
}

// Decode implements engine.Protocol: DecodeResilient's output, without
// the referee's recheck of round 1 and the verdict.
func (p *TwoRound) Decode(n int, transcript *engine.Transcript, _ *rng.PublicCoins) ([]graph.Edge, error) {
	out, _ := p.decode(n, transcript)
	return out, nil
}

// DecodeResilient is Decode's output graded for damage, satisfying
// engine.ResilientProtocol. On top of decode's counts the referee
// recomputes M₁ from the sealed round 1, and classifies the run:
//
//   - ok: every message of both rounds parsed cleanly, the feedback
//     matched the referee's own recomputation, and no residual list was
//     at the cap — the output carries the protocol's guarantee (a maximal
//     matching whenever the cap was not binding);
//   - degraded: some sketches were missing/garbled (skipped), the sealed
//     feedback diverged from the recomputed M₁ (a damaged downlink), or a
//     residual list hit the cap (possible truncation, so maximality may
//     be lost); the output is still a valid greedy matching of the
//     surviving reports;
//   - failed: more than half the vertices were damaged in either round.
//
// In-range bit flips that forge plausible neighbor IDs are undetectable
// from message contents alone; faults.Run's channel-record folding
// covers that case, so a faulted run is never reported ok end to end.
func (p *TwoRound) DecodeResilient(n int, transcript *engine.Transcript, coins *rng.PublicCoins) ([]graph.Edge, core.Resilience, error) {
	out, d := p.decode(n, transcript)
	// Recompute the true M₁ from round 1 to both count damaged sketches
	// and detect a perturbed downlink: the referee knows exactly what it
	// broadcast, so any divergence is detected damage.
	trueM1, r1bad := p.round1Matching(n, transcript, coins)
	fbDamaged := !d.fbOK || !slices.Equal(d.fed, trueM1)
	switch {
	case 2*r1bad > n || 2*d.bad > n:
		return out, core.ResilienceFailed, nil
	case r1bad > 0 || d.bad > 0 || d.capHits > 0 || fbDamaged:
		return out, core.ResilienceDegraded, nil
	default:
		return out, core.ResilienceOK, nil
	}
}
