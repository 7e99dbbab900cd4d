// Package protocol is the single abstraction every sketching protocol in
// this repository runs behind. The paper's whole argument is a contrast
// between one fixed model — every player sends one message from its local
// view and public coins, a referee decodes — and many protocols run
// inside it: polylog upper bounds (AGM forests, palette sparsification,
// subgraph counting, sparsifiers, densest subgraph, degeneracy) versus
// the Ω(n^(1/2−ε)) lower bound for maximal matching and MIS. One model,
// many protocols means one contract, many implementations.
//
// The contract is engine.Protocol with its optional extensions. A
// one-round core.Protocol reaches it through one adapter, which embeds
// the sketching model in the broadcast congested clique (the paper's
// §2.1 equivalence): OneRound keeps the protocol's output, and Lift folds
// it into the uniform Outcome the wire carries. That adapter is the only
// place the one-round capabilities — core.BlockSketcher's columnar path
// and core.ResilientProtocol's damage-aware decode — are detected and
// forwarded. Sketcher is a one-round protocol plus a Verify method, and
// RegisterSketcher lifts it with that Verify. The multi-round protocols
// (matchproto, misproto, dynstream) are engine protocols already, with
// referee feedback, a block form that decodes each round's shared state
// once per shard, and a resilient decode; Adapt folds their output into
// an Outcome, and its parameter type has the compiler check all three
// methods. Every registered protocol inherits the engine's worker
// sharding, bit accounting, transcript sealing, fault injection, and the
// refereed remote path for free.
//
// Protocols self-register from their own packages (init() + Register),
// so the wire registry is the set of imported protocol packages rather
// than a hand-maintained map.
package protocol

import (
	"repro/internal/bitio"
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

// Sketcher is a one-round protocol that can judge its own output: the
// core Sketch/Decode pair (one message per player from its local view, a
// referee decoding all messages) plus a verifier folding the typed
// output into the wire's Outcome, judged against the actual input graph
// where a ground truth is computable.
type Sketcher[O any] interface {
	core.Protocol[O]
	// Verify summarizes out as an Outcome. It runs outside the sketching
	// model (it may inspect g); implementations must be deterministic.
	Verify(g *graph.Graph, out O) Outcome
}

// oneRound embeds a one-round core protocol in the broadcast congested
// clique: its single round is every player's sketch, and the referee
// decodes round 0's messages in vertex order. out maps the protocol's
// output: the identity for OneRound, an outcome summarizer for Lift.
// oneRound has no Feedback method, so the engine leaves every feedback
// slot empty.
type oneRound[O, T any] struct {
	p   core.Protocol[O]
	out func(O) T
}

// OneRound embeds a one-round sketching protocol in the broadcast
// congested clique and keeps its output. The result is named p.Name()
// plus "/bcc".
func OneRound[O any](p core.Protocol[O]) engine.Protocol[O] {
	return &oneRound[O, O]{p: p, out: func(out O) O { return out }}
}

// Lift is OneRound with the output folded into an Outcome by outcome,
// the shape the registry and the wire carry.
func Lift[O any](p core.Protocol[O], outcome func(O) Outcome) engine.Protocol[Outcome] {
	return &oneRound[O, Outcome]{p: p, out: outcome}
}

func (a *oneRound[O, T]) Name() string { return a.p.Name() + "/bcc" }
func (a *oneRound[O, T]) Rounds() int  { return 1 }

func (a *oneRound[O, T]) Broadcast(_ int, view core.VertexView, _ *engine.Transcript, coins *rng.PublicCoins) (*bitio.Writer, error) {
	return a.p.Sketch(view, coins)
}

// BroadcastBlock implements engine.BlockBroadcaster. A core.BlockSketcher
// sketches the whole block through its columnar path; any other protocol
// falls back to per-view Sketch calls, byte-identical to the engine's
// per-vertex loop.
func (a *oneRound[O, T]) BroadcastBlock(_ int, views []core.VertexView, _ *engine.Transcript, coins *rng.PublicCoins, out []*bitio.Writer) (int, error) {
	if bs, ok := a.p.(core.BlockSketcher); ok {
		return bs.SketchBlock(views, coins, out)
	}
	for i, view := range views {
		w, err := a.p.Sketch(view, coins)
		if err != nil {
			return i, err
		}
		out[i] = w
	}
	return 0, nil
}

// sketches returns fresh readers over round 0's n messages.
func sketches(n int, t *engine.Transcript) []*bitio.Reader {
	readers := make([]*bitio.Reader, n)
	for v := range readers {
		readers[v] = t.Message(0, v)
	}
	return readers
}

func (a *oneRound[O, T]) Decode(n int, t *engine.Transcript, coins *rng.PublicCoins) (T, error) {
	out, err := a.p.Decode(n, sketches(n, t), coins)
	if err != nil {
		var zero T
		return zero, err
	}
	return a.out(out), nil
}

// DecodeResilient implements engine.ResilientProtocol. A
// core.ResilientProtocol decodes the damaged sketches itself. Any other
// protocol falls back to the strict Decode: a clean decode reports ok
// (faults.Run's channel record still demotes it when faults were
// injected), and a decode error reports failed.
func (a *oneRound[O, T]) DecodeResilient(n int, t *engine.Transcript, coins *rng.PublicCoins) (T, core.Resilience, error) {
	var zero T
	if rp, ok := a.p.(core.ResilientProtocol[O]); ok {
		out, verdict, err := rp.DecodeResilient(n, sketches(n, t), coins)
		if err != nil {
			return zero, verdict, err
		}
		return a.out(out), verdict, nil
	}
	out, err := a.p.Decode(n, sketches(n, t), coins)
	if err != nil {
		return zero, core.ResilienceFailed, err
	}
	return a.out(out), core.ResilienceOK, nil
}

// multiRound is what Adapt requires: an adaptive protocol with a block
// form and a resilient decode. Every registered multi-round protocol is
// all three.
type multiRound[T any] interface {
	engine.ResilientProtocol[T]
	engine.Adaptive
	engine.BlockBroadcaster
}

// adapted folds a multi-round protocol's output into an Outcome. The
// embedded protocol supplies Name, Rounds, Broadcast, BroadcastBlock and
// Feedback, so the engine runs its block form shard by shard.
type adapted[T any] struct {
	multiRound[T]
	outcome func(T) Outcome
}

func (a *adapted[T]) Decode(n int, t *engine.Transcript, coins *rng.PublicCoins) (Outcome, error) {
	out, err := a.multiRound.Decode(n, t, coins)
	if err != nil {
		return Outcome{}, err
	}
	return a.outcome(out), nil
}

func (a *adapted[T]) DecodeResilient(n int, t *engine.Transcript, coins *rng.PublicCoins) (Outcome, core.Resilience, error) {
	out, verdict, err := a.multiRound.DecodeResilient(n, t, coins)
	if err != nil {
		return Outcome{}, verdict, err
	}
	return a.outcome(out), verdict, nil
}

// Adapt lifts a multi-round protocol with an explicit outcome summarizer.
// p must implement engine.Adaptive, engine.BlockBroadcaster and
// engine.ResilientProtocol[T]; the compiler checks all three. Use Lift
// for one-round protocols.
func Adapt[T any](p multiRound[T], outcome func(T) Outcome) engine.Protocol[Outcome] {
	return &adapted[T]{multiRound: p, outcome: outcome}
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
