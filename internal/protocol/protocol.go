// Package protocol is the single abstraction every sketching protocol in
// this repository runs behind. The paper's whole argument is a contrast
// between one fixed model — every player sends one message from its local
// view and public coins, a referee decodes — and many protocols run
// inside it: polylog upper bounds (AGM forests, palette sparsification,
// subgraph counting, sparsifiers, densest subgraph, degeneracy) versus
// the Ω(n^(1/2−ε)) lower bound for maximal matching and MIS. One model,
// many protocols means one contract, many implementations.
//
// The contract is Sketcher: a one-round core protocol plus a Verify
// method folding its typed output into the uniform Outcome the wire
// carries. Lift adapts a Sketcher to engine.Protocol[Outcome] (via the
// congested-clique one-round embedding), so every protocol inherits the
// engine's worker sharding, bit accounting, transcript sealing, fault
// injection, and the refereed remote path for free. Multi-round
// protocols (matchproto, misproto) skip Sketcher and adapt directly via
// Adapt.
//
// Protocols self-register from their own packages (init() + Register),
// so the wire registry is the set of imported protocol packages rather
// than a hand-maintained map.
package protocol

import (
	"repro/internal/bitio"
	"repro/internal/cclique"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Outcome summarizes a referee's decoded output in a protocol-agnostic
// shape the wire can carry: the output's kind and size, plus — when the
// protocol's verifier knows a ground truth — whether the output passed
// verification against the actual input graph. (The verifier runs on the
// daemon, which holds the graph; the model's referee of course never
// sees it. Valid is service-level auditing, not part of the sketching
// model.)
type Outcome struct {
	// Kind names the output shape: "edges", "vertices", "count",
	// "value", "coloring", "sparsifier", or "decision".
	Kind string `json:"kind"`
	// Size is the output's cardinality (edge count, vertex count, the
	// counted value itself for "count", the number of distinct colors for
	// "coloring", the support size for "sparsifier").
	Size int `json:"size"`
	// Value carries numeric outputs that are not cardinalities: the
	// estimate itself for "value" outcomes, the total edge weight for
	// "sparsifier". Zero for purely combinatorial kinds.
	Value float64 `json:"value,omitempty"`
	// Checked reports whether a ground-truth verifier ran.
	Checked bool `json:"checked"`
	// Valid is the verifier's verdict (false when Checked is false).
	Valid bool `json:"valid"`
}

// Sketcher is the uniform one-round protocol contract: the core
// Sketch/Decode pair (one message per player from its local view, a
// referee decoding all messages) plus a verifier folding the typed
// output into the wire's Outcome, judged against the actual input graph
// where a ground truth is computable.
type Sketcher[O any] interface {
	core.Protocol[O]
	// Verify summarizes out as an Outcome. It runs outside the sketching
	// model (it may inspect g); implementations must be deterministic.
	Verify(g *graph.Graph, out O) Outcome
}

// adapted lifts a typed engine protocol to engine.Protocol[Outcome] so
// that heterogeneous protocols (edge outputs, vertex sets, counts,
// estimates) can share one executor, one batch, and one wire shape.
type adapted[T any] struct {
	inner   engine.Protocol[T]
	outcome func(T) Outcome
}

// resilientDecoder is faults.ResilientProtocol's extra method, declared
// structurally so this package need not import faults (whose tests
// exercise protocol packages that import this one). A test in
// protocol_test asserts the interfaces stay in sync.
type resilientDecoder[T any] interface {
	DecodeResilient(n int, t *engine.Transcript, coins *rng.PublicCoins) (T, core.Resilience, error)
}

// adaptiveFeedback is engine.Adaptive's extra method, declared
// structurally (like resilientDecoder) so the check works against any
// inner protocol type. A test in protocol_test asserts the interfaces
// stay in sync.
type adaptiveFeedback interface {
	Feedback(round int, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error)
}

func (a *adapted[T]) Name() string { return a.inner.Name() }
func (a *adapted[T]) Rounds() int  { return a.inner.Rounds() }

func (a *adapted[T]) Broadcast(round int, view core.VertexView, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return a.inner.Broadcast(round, view, t, coins)
}

// BroadcastBlock forwards the inner protocol's columnar path when it has
// one (cclique.OneRound always does) and otherwise falls back to
// per-view Broadcast calls — byte-identical to the engine's own per-vertex
// loop, so adapting a protocol never changes which bits a block
// execution produces.
func (a *adapted[T]) BroadcastBlock(round int, views []core.VertexView, t *engine.Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	if bb, ok := a.inner.(engine.BlockBroadcaster); ok {
		return bb.BroadcastBlock(round, views, t, coins, out)
	}
	for i, view := range views {
		w, err := a.inner.Broadcast(round, view, t, coins)
		if err != nil {
			return i, err
		}
		out[i] = w
	}
	return 0, nil
}

// Feedback forwards the inner protocol's referee feedback when it is
// adaptive. For a non-adaptive inner protocol it returns a nil writer,
// which the engine seals as an empty feedback slot — bit-identical (and
// stats-identical) to not implementing engine.Adaptive at all, so the
// unconditional forwarding method is digest-neutral for every wrapped
// one-round protocol.
func (a *adapted[T]) Feedback(round int, t *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	if ap, ok := a.inner.(adaptiveFeedback); ok {
		return ap.Feedback(round, t, coins)
	}
	return nil, nil
}

func (a *adapted[T]) Decode(n int, t *engine.Transcript, coins *rng.PublicCoins) (Outcome, error) {
	out, err := a.inner.Decode(n, t, coins)
	if err != nil {
		return Outcome{}, err
	}
	return a.outcome(out), nil
}

// DecodeResilient forwards to the inner protocol's resilient decode when
// it has one, with the same strict-decode fallback semantics as
// cclique.OneRound: a clean strict decode reports ok (faults.Run's
// channel-record folding still demotes it when faults were injected).
func (a *adapted[T]) DecodeResilient(n int, t *engine.Transcript, coins *rng.PublicCoins) (Outcome, core.Resilience, error) {
	if rp, ok := a.inner.(resilientDecoder[T]); ok {
		out, verdict, err := rp.DecodeResilient(n, t, coins)
		if err != nil {
			return Outcome{}, verdict, err
		}
		return a.outcome(out), verdict, nil
	}
	out, err := a.inner.Decode(n, t, coins)
	if err != nil {
		return Outcome{}, core.ResilienceFailed, err
	}
	return a.outcome(out), core.ResilienceOK, nil
}

// Adapt lifts a multi-round engine protocol with an explicit outcome
// summarizer. Prefer Lift for one-round Sketchers.
func Adapt[T any](p engine.Protocol[T], outcome func(T) Outcome) engine.Protocol[Outcome] {
	return &adapted[T]{inner: p, outcome: outcome}
}

// EdgesOutcome returns the outcome summarizer for edge-set outputs;
// verify may be nil (the outcome is then reported unchecked).
func EdgesOutcome(g *graph.Graph, verify func(*graph.Graph, []graph.Edge) bool) func([]graph.Edge) Outcome {
	return func(out []graph.Edge) Outcome {
		o := Outcome{Kind: "edges", Size: len(out)}
		if verify != nil {
			o.Checked, o.Valid = true, verify(g, out)
		}
		return o
	}
}

// VerticesOutcome returns the outcome summarizer for vertex-set outputs;
// verify may be nil.
func VerticesOutcome(g *graph.Graph, verify func(*graph.Graph, []int) bool) func([]int) Outcome {
	return func(out []int) Outcome {
		o := Outcome{Kind: "vertices", Size: len(out)}
		if verify != nil {
			o.Checked, o.Valid = true, verify(g, out)
		}
		return o
	}
}

// CountOutcome returns the outcome summarizer for count outputs; verify
// may be nil.
func CountOutcome(g *graph.Graph, verify func(*graph.Graph, int) bool) func(int) Outcome {
	return func(out int) Outcome {
		o := Outcome{Kind: "count", Size: out}
		if verify != nil {
			o.Checked, o.Valid = true, verify(g, out)
		}
		return o
	}
}

// Lift embeds a one-round Sketcher into the broadcast congested clique
// (cclique.OneRound) and folds its output through its own Verify. The
// result is a full engine protocol: sharded execution, sealed
// transcripts, fault injection, and the wire all work unchanged.
func Lift[O any](s Sketcher[O], g *graph.Graph) engine.Protocol[Outcome] {
	return Adapt[O](&cclique.OneRound[O]{P: s}, func(out O) Outcome {
		return s.Verify(g, out)
	})
}
