// Package core implements the paper's distributed graph sketching model
// (Section 2.1).
//
// There are n players, one per vertex of an undirected graph G. Player v
// knows n, its own ID, and its neighbor set N(v) — nothing else. All
// players share public coins with a referee who receives no input. Each
// player simultaneously sends one message (its "sketch") to the referee,
// who must output a solution to the problem at hand. The cost of a
// protocol is the worst-case sketch length in bits.
//
// The package enforces the model structurally: a Protocol's Sketch method
// receives only a VertexView and the public coins, so a player cannot
// possibly consult global information, while Decode sees only the sketches
// and the coins. Lower-bound experiments that reveal extra advice to the
// referee (the paper's Remark 3.6 gives the referee σ and j⋆ for free) do
// so by closing protocol values over that advice — it is never threaded
// through Sketch.
package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/rng"
)

// VertexView is the entire input of one player: the number of vertices in
// the graph, the player's vertex ID, and the sorted list of its neighbors.
type VertexView struct {
	N         int
	ID        int
	Neighbors []int
}

// Degree returns the number of neighbors.
func (v VertexView) Degree() int { return len(v.Neighbors) }

// Protocol is a one-round public-coin sketching protocol computing an
// output of type O.
type Protocol[O any] interface {
	// Name identifies the protocol in experiment tables.
	Name() string
	// Sketch computes the message of the player with the given view.
	Sketch(view VertexView, coins *rng.PublicCoins) (*bitio.Writer, error)
	// Decode runs the referee over all n sketches, in vertex order.
	Decode(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) (O, error)
}

// BlockSketcher is the optional columnar fast path of a Protocol: a
// sketcher that can compute the messages of a whole block of players in
// one call, amortizing spec construction and sketch state across the
// block. out[i] must receive exactly the bits Sketch(views[i], coins)
// would produce — block execution is a speed lever, never a semantic
// one. On error it returns the index within views of the failing player.
// The engine layer (engine.BlockBroadcaster via cclique.OneRound)
// forwards every shard's view slice here.
type BlockSketcher interface {
	SketchBlock(views []VertexView, coins *rng.PublicCoins, out []*bitio.Writer) (int, error)
}

// Resilience classifies a referee's confidence in a decode that may have
// run over dropped or corrupted sketches (DESIGN.md § fault model).
//
// The contract protocols must uphold: ResilienceOK is only reported when
// the referee saw no evidence of damage — no missing messages, no parse
// anomalies, no failed checksums, no truncation-capped lists. A degraded
// or failed decode may still return a best-effort output, but it must not
// silently claim full correctness.
type Resilience int

const (
	// ResilienceOK: the decode observed no damage; the output carries the
	// protocol's usual correctness guarantee. This is the zero value, so
	// unfaulted runs report ok without any extra plumbing.
	ResilienceOK Resilience = iota
	// ResilienceDegraded: some sketches were missing or garbled; the
	// referee produced a best-effort output from the surviving material
	// (possibly via fallback sampler instances) with weakened guarantees.
	ResilienceDegraded
	// ResilienceFailed: too much material was lost for any meaningful
	// output, or the decode errored outright.
	ResilienceFailed
)

// String renders the outcome for experiment tables and stats reports.
func (r Resilience) String() string {
	switch r {
	case ResilienceOK:
		return "ok"
	case ResilienceDegraded:
		return "degraded"
	case ResilienceFailed:
		return "failed"
	default:
		return fmt.Sprintf("resilience(%d)", int(r))
	}
}

// Worse returns the more severe of two outcomes.
func (r Resilience) Worse(o Resilience) Resilience {
	if o > r {
		return o
	}
	return r
}

// ResilientProtocol is a one-round Protocol whose referee can additionally
// decode damaged sketch vectors: missing messages (zero bits) and garbled
// bits are detected and worked around where the encoding allows, and the
// Resilience outcome reports how much trust the output deserves.
type ResilientProtocol[O any] interface {
	Protocol[O]
	// DecodeResilient is Decode with graceful degradation. It must not
	// return ResilienceOK unless every sketch parsed cleanly.
	DecodeResilient(n int, sketches []*bitio.Reader, coins *rng.PublicCoins) (O, Resilience, error)
}

// Result reports one protocol execution.
type Result[O any] struct {
	Output O
	// MaxSketchBits is the worst-case per-player message length, the
	// paper's communication cost measure.
	MaxSketchBits int
	// TotalSketchBits is the sum of all message lengths.
	TotalSketchBits int
	// PlayerBits holds each player's message length. The paper's remark
	// after Theorem 1 extends the lower bound from worst-case to average
	// per-player communication; this field lets experiments report both.
	PlayerBits []int
}

// AvgSketchBits returns the mean per-player message length.
func (r Result[O]) AvgSketchBits(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.TotalSketchBits) / float64(n)
}

// Views builds the n player views of a graph.
func Views(g *graph.Graph) []VertexView {
	views := make([]VertexView, g.N())
	for v := 0; v < g.N(); v++ {
		views[v] = VertexView{N: g.N(), ID: v, Neighbors: g.Neighbors(v)}
	}
	return views
}

// Run executes one round of the sketching model: every player sketches
// from its local view, then the referee decodes.
func Run[O any](p Protocol[O], g *graph.Graph, coins *rng.PublicCoins) (Result[O], error) {
	var res Result[O]
	views := Views(g)
	writers := make([]*bitio.Writer, len(views))
	res.PlayerBits = make([]int, len(views))
	for i, view := range views {
		w, err := p.Sketch(view, coins)
		if err != nil {
			return res, fmt.Errorf("core: player %d sketch: %w", i, err)
		}
		if w == nil {
			w = &bitio.Writer{}
		}
		writers[i] = w
		res.PlayerBits[i] = w.Len()
		if w.Len() > res.MaxSketchBits {
			res.MaxSketchBits = w.Len()
		}
		res.TotalSketchBits += w.Len()
	}
	readers := make([]*bitio.Reader, len(writers))
	for i, w := range writers {
		readers[i] = bitio.ReaderFor(w)
	}
	out, err := p.Decode(g.N(), readers, coins)
	if err != nil {
		return res, fmt.Errorf("core: referee decode: %w", err)
	}
	res.Output = out
	return res, nil
}

// Stats aggregates repeated protocol executions over sampled inputs.
type Stats struct {
	Trials        int
	Successes     int
	MaxSketchBits int     // worst case over all trials
	AvgSketchBits float64 // mean of per-trial max
}

// SuccessRate returns the fraction of successful trials.
func (s Stats) SuccessRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.Successes) / float64(s.Trials)
}

// Trial describes one input instance for success estimation: the graph and
// an output validator for that graph.
type Trial[O any] struct {
	Graph  *graph.Graph
	Verify func(out O) bool
}

// EstimateSuccess runs the protocol over `trials` sampled inputs,
// validating each output. sample(i) must return the i-th trial; each trial
// uses fresh public coins derived from the given root so that randomized
// protocols are re-randomized per trial. Protocol errors (for instance a
// referee that detects an undecodable sketch) count as failures rather
// than aborting the estimate, matching the model's "errs with probability
// δ" semantics.
func EstimateSuccess[O any](p Protocol[O], sample func(trial int) Trial[O], trials int, coins *rng.PublicCoins) Stats {
	var stats Stats
	stats.Trials = trials
	sum := 0
	for i := 0; i < trials; i++ {
		tr := sample(i)
		res, err := Run(p, tr.Graph, coins.Derive("trial").DeriveIndex(i))
		if res.MaxSketchBits > stats.MaxSketchBits {
			stats.MaxSketchBits = res.MaxSketchBits
		}
		sum += res.MaxSketchBits
		if err != nil {
			continue
		}
		if tr.Verify(res.Output) {
			stats.Successes++
		}
	}
	if trials > 0 {
		stats.AvgSketchBits = float64(sum) / float64(trials)
	}
	return stats
}
