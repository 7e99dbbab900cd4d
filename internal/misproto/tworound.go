package misproto

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

// TwoRound is the adaptive two-round MIS protocol (Ghaffari et al. [35]
// flavor). All parties share a public random rank order π.
//
// Round 1: every vertex broadcasts ~√n random neighbors. The referee
// computes the candidate set S₁ = greedy MIS of the sampled graph in π
// order and broadcasts it back as its feedback message (engine.Adaptive).
// S₁ dominates every vertex in the sampled graph (so every vertex
// outside S₁ has an S₁-neighbor in G), but S₁ can contain adjacent pairs
// whose edge the samples missed.
//
// Round 2: each vertex v, reading S₁ from the sealed feedback and
// consulting its full neighborhood:
//   - if v ∈ S₁ and some true neighbor u ∈ S₁ has smaller rank, v raises
//     a conflict bit and broadcasts its S₁-neighbor list. Every conflict
//     edge inside S₁ has its larger-rank endpoint raising the bit, so the
//     referee learns the *complete* conflict graph on S₁;
//   - if v ∈ S₁ otherwise, v broadcasts a single 0 bit;
//   - if v ∉ S₁, v broadcasts its S₁-neighbor list (domination test) and
//     its non-S₁-neighbor list (extension edges), both capped.
//
// The referee computes a true greedy MIS F of the (fully known) conflict
// graph on S₁, then extends F in rank order with undominated non-S₁
// vertices using the reported edges. Only cap overflows can cost
// correctness; those failures are measured, never silently ignored.
//
// The struct is stateless: the shared round-1 derivation travels through
// the transcript's sealed feedback lane, and the rank permutation is
// public-coin material every party re-derives locally. Each engine shard
// parses the feedback and derives the permutation once for all of its
// players (BroadcastBlock).
type TwoRound struct {
	// SamplesPerVertex is the round-1 budget in neighbors; 0 = ⌈√n⌉.
	SamplesPerVertex int
	// Cap bounds each round-2 list in entries; 0 = ⌈2·√n·log2(n+1)⌉.
	Cap int
}

var (
	_ engine.ResilientProtocol[[]int] = (*TwoRound)(nil)
	_ engine.Adaptive                 = (*TwoRound)(nil)
	_ engine.BlockBroadcaster         = (*TwoRound)(nil)
)

// NewTwoRound returns the protocol with default budgets.
func NewTwoRound() *TwoRound { return &TwoRound{} }

// Name implements engine.Protocol.
func (p *TwoRound) Name() string { return "two-round-mis" }

// Rounds implements engine.Protocol.
func (p *TwoRound) Rounds() int { return 2 }

func (p *TwoRound) samples(n int) int {
	if p.SamplesPerVertex > 0 {
		return p.SamplesPerVertex
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

func (p *TwoRound) listCap(n int) int {
	if p.Cap > 0 {
		return p.Cap
	}
	return int(math.Ceil(2 * math.Sqrt(float64(n)) * math.Log2(float64(n)+1)))
}

// sharedRank re-derives the public rank permutation and its inverse
// (pos[v] = rank position of v). Pure public-coin material: every party
// and the referee compute the identical permutation locally.
func sharedRank(n int, coins *rng.PublicCoins) (rank, pos []int) {
	rank = coins.Derive("mis-rank").Source().Perm(n)
	pos = make([]int, n)
	for i, v := range rank {
		pos[v] = i
	}
	return rank, pos
}

// candidateSet computes S₁ from the round-1 broadcasts — the
// referee-side derivation behind the feedback message. Damaged sketches
// contribute what they can and are counted in r1bad, which
// DecodeResilient folds into its verdict, so a faulted round-1
// transcript never aborts the run.
func (p *TwoRound) candidateSet(n int, transcript *engine.Transcript, rank []int) (s1 []int, r1bad int) {
	sketches := make([]*bitio.Reader, n)
	for v := 0; v < n; v++ {
		sketches[v] = transcript.Message(0, v)
	}
	sampled, r1bad := sampledGraph(n, sketches)
	return graph.GreedyMIS(sampled, rank), r1bad
}

// Feedback implements engine.Adaptive: after round 1 seals, the referee
// broadcasts S₁ as a vertex list (count, then ids at id width, in greedy
// rank order). After the final round the referee is silent.
func (p *TwoRound) Feedback(round int, transcript *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	if round != 0 {
		return nil, nil
	}
	n := transcript.Players(0)
	rank, _ := sharedRank(n, coins)
	s1, _ := p.candidateSet(n, transcript, rank)
	idWidth := bitio.UintWidth(n)
	w := &bitio.Writer{}
	w.Grow(bitio.UvarintWidth(uint64(len(s1))) + len(s1)*idWidth)
	w.WriteUvarint(uint64(len(s1)))
	for _, v := range s1 {
		w.WriteUint(uint64(v), idWidth)
	}
	return w, nil
}

// readCandidateFeedback parses the round-1 feedback broadcast back into
// the fed-back candidate list and membership mask. Parsing is tolerant
// (truncation stops, out-of-range or duplicate entries are skipped) so a
// faulted feedback message degrades the run instead of aborting it; ok
// reports whether every declared entry parsed cleanly. On the referee's
// own clean feedback the list round-trips exactly.
func readCandidateFeedback(n int, r *bitio.Reader) (s1 []int, inS1 []bool, ok bool) {
	inS1 = make([]bool, n)
	ok = true
	if r == nil {
		return nil, inS1, false
	}
	k, err := r.ReadUvarint()
	if err != nil {
		return nil, inS1, false
	}
	idWidth := bitio.UintWidth(n)
	for i := uint64(0); i < k; i++ {
		u, err := r.ReadUint(idWidth)
		if err != nil {
			return s1, inS1, false
		}
		if int(u) >= n || inS1[u] {
			ok = false
			continue
		}
		inS1[u] = true
		s1 = append(s1, int(u))
	}
	if r.Remaining() != 0 {
		ok = false
	}
	return s1, inS1, ok
}

// Broadcast implements engine.Protocol: BroadcastBlock over one view.
func (p *TwoRound) Broadcast(round int, view core.VertexView, transcript *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	views, out := [1]core.VertexView{view}, [1]*bitio.Writer{}
	_, err := p.BroadcastBlock(round, views[:], transcript, coins, out[:])
	return out[0], err
}

// BroadcastBlock implements engine.BlockBroadcaster. Round-2 players
// read S₁ from the referee's sealed feedback (Transcript.Feedback) and
// re-derive the public rank order locally, rather than re-deriving S₁
// from the full round-1 transcript; both are derived once for the whole
// block, and every view's report is written from them.
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
		_, pos := sharedRank(n, coins)
		_, inS1, _ := readCandidateFeedback(n, transcript.Feedback(0))
		limit := p.listCap(n)
		idWidth := bitio.UintWidth(n)
		for i, view := range views {
			out[i] = round2Report(view, pos, inS1, limit, idWidth, coins)
		}
	default:
		return 0, fmt.Errorf("misproto: unexpected round %d", round)
	}
	return 0, nil
}

// round2Report is a round-2 player's message, written from the public
// rank positions pos and the fed-back S₁ mask inS1, each list capped at
// limit entries.
func round2Report(view core.VertexView, pos []int, inS1 []bool, limit, idWidth int, coins *rng.PublicCoins) *bitio.Writer {
	src := coins.Derive("mis-cap").DeriveIndex(view.ID).Source()
	w := &bitio.Writer{}

	cappedBits := func(lst []int) int {
		k := min(len(lst), limit)
		return bitio.UvarintWidth(uint64(k)) + k*idWidth
	}
	writeCapped := func(lst []int) {
		if len(lst) > limit {
			src.Shuffle(len(lst), func(i, j int) { lst[i], lst[j] = lst[j], lst[i] })
			lst = lst[:limit]
		}
		w.WriteUvarint(uint64(len(lst)))
		for _, u := range lst {
			w.WriteUint(uint64(u), idWidth)
		}
	}

	var dominators, residual []int
	for _, u := range view.Neighbors {
		if inS1[u] {
			dominators = append(dominators, u)
		} else {
			residual = append(residual, u)
		}
	}

	if inS1[view.ID] {
		conflict := false
		for _, u := range dominators {
			if pos[u] < pos[view.ID] {
				conflict = true
				break
			}
		}
		if !conflict {
			w.WriteBit(false)
			return w
		}
		w.Grow(1 + cappedBits(dominators))
		w.WriteBit(true)
		// Conflicted member: report the S₁-neighbor list so the
		// referee learns the conflict edges (the larger-rank endpoint
		// of every S₁-conflict edge lands here).
		writeCapped(dominators)
		return w
	}
	// Outside S₁: domination witnesses plus extension edges.
	w.Grow(cappedBits(dominators) + cappedBits(residual))
	writeCapped(dominators)
	writeCapped(residual)
	return w
}

// round2 is what the referee's reading of a run met besides its output:
// the S₁ the sealed feedback carries, whether that feedback parsed
// cleanly, and the round-2 messages that were damaged or held a list at
// the cap.
type round2 struct {
	s1           []int
	fbOK         bool
	bad, capHits int
}

// decode is the referee's one reading of a run, under both Decode and
// DecodeResilient. It interprets round-2 reports against the S₁ it
// broadcast as feedback — the sealed feedback is what the players
// actually acted on, so decoding against it keeps referee and players
// consistent even over a damaged downlink. A damaged round-2 message
// contributes the lists that parsed, costing the rest of its conflict
// reports and domination witnesses.
func (p *TwoRound) decode(n int, transcript *engine.Transcript, rank []int) ([]int, round2) {
	s1, inS1, fbOK := readCandidateFeedback(n, transcript.Feedback(0))
	d := round2{s1: s1, fbOK: fbOK}
	limit := p.listCap(n)
	dominators := make([][]int, n)
	residual := make([][]int, n)
	nextList := func(r *bitio.Reader, v int) ([]int, bool) {
		ids, k, ok := readIDs(nil, r, n, v)
		if int64(k) >= int64(limit) {
			d.capHits++ // at (or corrupted past) the cap: possible truncation
		}
		return ids, ok
	}
	for v := 0; v < n; v++ {
		r := transcript.Message(1, v)
		if r.Remaining() == 0 {
			d.bad++
			continue
		}
		ok := true
		if inS1[v] {
			// The message is non-empty, so its conflict bit reads.
			if conflict, _ := r.ReadBit(); conflict {
				dominators[v], ok = nextList(r, v)
			}
		} else {
			dominators[v], ok = nextList(r, v)
			if ok {
				residual[v], ok = nextList(r, v)
			}
		}
		if !ok || r.Remaining() != 0 { // a damaged list, or bits past the lists
			d.bad++
		}
	}
	return assembleMIS(n, rank, s1, inS1, dominators, residual), d
}

// Decode implements engine.Protocol: DecodeResilient's output, without
// the referee's recheck of round 1 and the verdict.
func (p *TwoRound) Decode(n int, transcript *engine.Transcript, coins *rng.PublicCoins) ([]int, error) {
	rank, _ := sharedRank(n, coins)
	out, _ := p.decode(n, transcript, rank)
	return out, nil
}

// assembleMIS is the referee's combination step in decode: a true
// greedy MIS F of the conflict graph on S₁ (every conflict edge was
// reported by its larger-rank endpoint, so within S₁ the referee has
// complete knowledge), extended in rank order with undominated non-S₁
// vertices using every reported edge.
func assembleMIS(n int, rank, s1 []int, inS1 []bool, dominators, residual [][]int) []int {
	conflictB := graph.NewBuilder(n)
	for _, v := range s1 {
		for _, u := range dominators[v] {
			if inS1[u] {
				conflictB.AddEdge(v, u)
			}
		}
	}
	conflictG := conflictB.Build()
	inSet := make([]bool, n)
	var out []int
	for _, v := range rank {
		if !inS1[v] {
			continue
		}
		free := true
		conflictG.EachNeighbor(v, func(u int) {
			if inSet[u] {
				free = false
			}
		})
		if free {
			inSet[v] = true
			out = append(out, v)
		}
	}

	known := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, u := range residual[v] {
			known.AddEdge(v, u)
		}
		for _, u := range dominators[v] {
			known.AddEdge(v, u)
		}
	}
	kg := known.Build()

	for _, v := range rank {
		if inS1[v] || inSet[v] {
			continue
		}
		free := true
		kg.EachNeighbor(v, func(u int) {
			if inSet[u] {
				free = false
			}
		})
		if free {
			inSet[v] = true
			out = append(out, v)
		}
	}
	return out
}

// DecodeResilient is Decode's output graded for damage, satisfying
// engine.ResilientProtocol. On top of decode's counts the referee
// recomputes S₁ from the sealed round 1: damaged round-1 sketches shrink
// that sampled graph (possibly inflating S₁), and a sealed feedback that
// diverges from the recomputation is a detected downlink fault. Verdicts
// mirror matchproto.TwoRound:
//
//   - ok: every message of both rounds parsed cleanly, the feedback
//     matched the recomputation, and no list was at the cap — the output
//     carries the protocol's usual guarantee;
//   - degraded: some sketches were missing/garbled, the downlink was
//     damaged, or a list hit the cap (possible truncation), so
//     independence or maximality may be lost;
//   - failed: more than half the vertices were damaged in either round.
//
// In-range bit flips forging plausible IDs are undetectable from message
// contents alone; faults.Run's channel-record folding covers that case.
func (p *TwoRound) DecodeResilient(n int, transcript *engine.Transcript, coins *rng.PublicCoins) ([]int, core.Resilience, error) {
	rank, _ := sharedRank(n, coins)
	out, d := p.decode(n, transcript, rank)
	trueS1, r1bad := p.candidateSet(n, transcript, rank)
	fbDamaged := !d.fbOK || !slices.Equal(d.s1, trueS1)
	switch {
	case 2*r1bad > n || 2*d.bad > n:
		return out, core.ResilienceFailed, nil
	case r1bad > 0 || d.bad > 0 || d.capHits > 0 || fbDamaged:
		return out, core.ResilienceDegraded, nil
	default:
		return out, core.ResilienceOK, nil
	}
}
